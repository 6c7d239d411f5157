//! Thread control blocks.

use crate::program::Program;
use locality_core::ThreadId;

/// The lifecycle state of a thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreadState {
    /// Runnable, waiting in a run queue.
    Ready,
    /// Currently executing on a processor.
    Running,
    /// Blocked on a synchronization object or a join.
    Blocked,
    /// Sleeping until a wake-up time.
    Sleeping,
    /// Finished.
    Exited,
    /// Killed by fault injection before it could exit cleanly (or
    /// stillborn on spawn failure); joinable like an exited thread.
    Aborted,
}

/// A thread control block.
pub struct Tcb {
    /// The thread's id.
    pub id: ThreadId,
    /// Lifecycle state.
    pub state: ThreadState,
    /// The body (taken out while a batch runs).
    pub program: Option<Box<dyn Program>>,
    /// Threads waiting to join this one.
    pub join_waiters: Vec<ThreadId>,
    /// Short program name (kept after exit for reports).
    pub name: String,
}

impl std::fmt::Debug for Tcb {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tcb")
            .field("id", &self.id)
            .field("state", &self.state)
            .field("name", &self.name)
            .finish_non_exhaustive()
    }
}

impl Tcb {
    /// Creates a ready TCB around a program.
    pub fn new(id: ThreadId, program: Box<dyn Program>) -> Self {
        let name = program.name().to_string();
        Tcb {
            id,
            state: ThreadState::Ready,
            program: Some(program),
            join_waiters: Vec::new(),
            name,
        }
    }

    /// Whether the thread has exited.
    pub fn exited(&self) -> bool {
        self.state == ThreadState::Exited
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{BatchCtx, Control};

    struct Nop;
    impl Program for Nop {
        fn next_batch(&mut self, _ctx: &mut BatchCtx<'_>) -> Control {
            Control::Exit
        }
        fn name(&self) -> &str {
            "nop"
        }
    }

    #[test]
    fn new_tcb_is_ready() {
        let tcb = Tcb::new(ThreadId(3), Box::new(Nop));
        assert_eq!(tcb.id, ThreadId(3));
        assert_eq!(tcb.state, ThreadState::Ready);
        assert_eq!(tcb.name, "nop");
        assert!(!tcb.exited());
        assert!(tcb.program.is_some());
        let dbg = format!("{tcb:?}");
        assert!(dbg.contains("nop"));
    }
}
