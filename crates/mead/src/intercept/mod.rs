//! The MEAD Interceptor: library-interpositioning over the simulated
//! syscall surface.

pub mod client;
pub(crate) mod common;
pub mod server;

/// Timer-token namespace reserved by the interceptors. Wrapped
/// applications must keep their own tokens below [`tokens::TOKEN_BASE`].
pub mod tokens {
    pub use super::common::{
        is_intercept_token, TOKEN_BASE, TOKEN_CHECKPOINT, TOKEN_DRAIN, TOKEN_GCS,
        TOKEN_QUERY_TIMEOUT, TOKEN_REDIRECT_DONE_BASE,
    };
}
