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
}

impl std::fmt::Debug for Tcb {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tcb")
            .field("id", &self.id)
            .field("state", &self.state)
            .finish_non_exhaustive()
    }
}

impl Tcb {
    /// Creates a ready TCB around a program.
    pub fn new(id: ThreadId, program: Box<dyn Program>) -> Self {
        Tcb { id, state: ThreadState::Ready, program: Some(program), join_waiters: Vec::new() }
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
    }

    #[test]
    fn new_tcb_is_ready() {
        let tcb = Tcb::new(ThreadId(3), Box::new(Nop));
        assert_eq!(tcb.id, ThreadId(3));
        assert_eq!(tcb.state, ThreadState::Ready);
        assert!(tcb.program.is_some());
        assert!(tcb.join_waiters.is_empty());
        assert_eq!(format!("{tcb:?}"), "Tcb { id: ThreadId(3), state: Ready, .. }");
    }
}
