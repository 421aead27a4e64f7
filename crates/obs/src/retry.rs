//! The workspace's one panic-supervision primitive: run a closure under
//! `catch_unwind`, retry it a bounded number of times, and turn a panic
//! that survives every attempt into a value the caller can record.
//!
//! Campaign fault slots, evaluation pipeline stages, and print-shop jobs
//! all supervise their work through [`retry_panics`]; each keeps its own
//! backoff schedule and counters in the closure it passes.

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// A call that panicked on every allowed attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Panicked {
    /// The final panic payload, if it was a string.
    pub message: String,
    /// Attempts made (1 + retries).
    pub attempts: u32,
}

/// Runs `attempt(n)` for `n = 0, 1, …` until one call returns without
/// panicking, allowing at most `max_retries` retries. `backoff(n)` runs
/// after attempt `n` panicked and before attempt `n + 1`; it is not
/// called after the last attempt.
///
/// Returns the value with the index of the attempt that produced it
/// (which is also the number of retries spent).
///
/// # Errors
///
/// Returns [`Panicked`] with the last panic's message when all
/// `max_retries + 1` attempts panicked.
///
/// ```
/// use printed_obs::retry::retry_panics;
/// let mut waits = Vec::new();
/// let got = retry_panics(3, |n| waits.push(n), |n| {
///     if n < 2 {
///         panic!("transient");
///     }
///     n * 10
/// });
/// assert_eq!(got, Ok((20, 2)));
/// assert_eq!(waits, [0, 1]);
/// ```
pub fn retry_panics<T>(
    max_retries: u32,
    mut backoff: impl FnMut(u32),
    mut attempt: impl FnMut(u32) -> T,
) -> Result<(T, u32), Panicked> {
    let mut n = 0u32;
    loop {
        match catch_unwind(AssertUnwindSafe(|| attempt(n))) {
            Ok(value) => return Ok((value, n)),
            Err(payload) if n >= max_retries => {
                return Err(Panicked { message: panic_message(payload.as_ref()), attempts: n + 1 });
            }
            Err(_) => {
                backoff(n);
                n += 1;
            }
        }
    }
}

/// Extracts a printable message from a panic payload.
pub fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exhausted_retries_report_the_last_message_and_attempt_count() {
        let mut backoffs = 0;
        let got: Result<((), u32), _> =
            retry_panics(2, |_| backoffs += 1, |n| panic!("attempt {n} failed"));
        assert_eq!(got, Err(Panicked { message: "attempt 2 failed".to_string(), attempts: 3 }));
        assert_eq!(backoffs, 2, "no backoff after the final attempt");
    }

    #[test]
    fn a_clean_first_attempt_never_backs_off() {
        let got = retry_panics(5, |_| unreachable!("no retry needed"), |n| n);
        assert_eq!(got, Ok((0, 0)));
    }

    #[test]
    fn non_string_payloads_get_a_placeholder() {
        let payload = catch_unwind(|| std::panic::panic_any(7u8)).err().into_iter().next();
        let message = payload.map(|p| panic_message(p.as_ref()));
        assert_eq!(message.as_deref(), Some("non-string panic payload"));
    }
}
