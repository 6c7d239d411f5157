use crate::thread::BlockedOn;
use locality_core::ThreadId;
use std::error::Error;
use std::fmt;

/// Errors surfaced by the runtime engine.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum RuntimeError {
    /// No thread can make progress: some threads are blocked, none are
    /// ready or sleeping, and no processor is running anything.
    Deadlock {
        /// The threads still blocked, by id, each with what it waits for.
        blocked: Vec<(ThreadId, BlockedOn)>,
    },
    /// A program referred to a thread id the runtime does not know.
    UnknownThread {
        /// The offending id.
        thread: ThreadId,
    },
    /// A program used a synchronization object id that was never created.
    UnknownSyncObject {
        /// Human-readable description ("mutex 3", …).
        what: String,
    },
    /// A program unlocked a mutex it does not hold.
    NotOwner {
        /// The offending thread.
        thread: ThreadId,
        /// The mutex index.
        mutex: usize,
    },
    /// The machine description cannot host a scheduler (cache too small
    /// for the model, zero or too many processors). Previously this
    /// panicked inside scheduler construction; it now surfaces as a
    /// typed error from [`crate::Engine::new`].
    InvalidMachine {
        /// What was wrong with the description.
        what: String,
    },
    /// The engine exceeded its configured step budget (runaway program).
    StepBudgetExceeded {
        /// The configured budget.
        budget: u64,
    },
    /// An internal invariant failed (a bug surfaced as an error instead
    /// of a panic, so fault-injection runs can report it gracefully).
    Internal {
        /// What went wrong.
        what: String,
    },
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::Deadlock { blocked } => {
                write!(f, "deadlock: {} thread(s) blocked with no runnable work", blocked.len())
            }
            RuntimeError::UnknownThread { thread } => write!(f, "unknown thread {thread}"),
            RuntimeError::UnknownSyncObject { what } => write!(f, "unknown sync object: {what}"),
            RuntimeError::NotOwner { thread, mutex } => {
                write!(f, "{thread} unlocked mutex {mutex} it does not own")
            }
            RuntimeError::InvalidMachine { what } => {
                write!(f, "invalid machine description: {what}")
            }
            RuntimeError::StepBudgetExceeded { budget } => {
                write!(f, "engine exceeded its step budget of {budget}")
            }
            RuntimeError::Internal { what } => write!(f, "internal runtime error: {what}"),
        }
    }
}

impl Error for RuntimeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let blocked = vec![(ThreadId(1), BlockedOn::Join(ThreadId(2))); 2];
        let e = RuntimeError::Deadlock { blocked };
        assert!(e.to_string().contains("2 thread"));
        assert!(RuntimeError::UnknownThread { thread: ThreadId(7) }.to_string().contains("t7"));
        assert!(RuntimeError::NotOwner { thread: ThreadId(1), mutex: 3 }
            .to_string()
            .contains("mutex 3"));
        assert!(RuntimeError::StepBudgetExceeded { budget: 10 }.to_string().contains("10"));
        let e = RuntimeError::InvalidMachine { what: "0 cpus".into() };
        assert!(e.to_string().contains("0 cpus"));
        let e = RuntimeError::UnknownSyncObject { what: "semaphore 9".into() };
        assert!(e.to_string().contains("semaphore 9"));
        let e = RuntimeError::Internal { what: "tcb missing".into() };
        assert!(e.to_string().contains("tcb missing"));
    }

    #[test]
    fn is_std_error() {
        fn assert_err<E: Error + Send + Sync + 'static>() {}
        assert_err::<RuntimeError>();
    }
}
