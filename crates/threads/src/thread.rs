//! Thread control blocks.

use crate::program::Program;
use crate::sync::{BarrierId, CondId, MutexId, SemId};
use locality_core::ThreadId;

/// The lifecycle state of a thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreadState {
    /// Runnable, waiting in a run queue.
    Ready,
    /// Currently executing on a processor.
    Running,
    /// Blocked on one synchronization object or one join.
    Blocked(BlockedOn),
    /// Sleeping until a wake-up time.
    Sleeping,
}

/// What a blocked thread waits for. The engine writes it when the thread
/// blocks and when a signalled condvar waiter moves onto its mutex's
/// queue; an abort reads it to leave that one queue, and a deadlock
/// reports it (a thread stuck on a condvar is a lost wakeup).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockedOn {
    /// Waiting to acquire a mutex.
    Mutex(MutexId),
    /// Waiting on a semaphore.
    Sem(SemId),
    /// Waiting at a barrier.
    Barrier(BarrierId),
    /// Waiting on a condition variable.
    Cond(CondId),
    /// Waiting for another thread to exit.
    Join(ThreadId),
}

impl std::fmt::Display for BlockedOn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            BlockedOn::Mutex(m) => write!(f, "mutex m{}", m.0),
            BlockedOn::Sem(s) => write!(f, "semaphore s{}", s.0),
            BlockedOn::Barrier(b) => write!(f, "barrier b{}", b.0),
            BlockedOn::Cond(c) => write!(f, "condvar c{}", c.0),
            BlockedOn::Join(t) => write!(f, "join of {t}"),
        }
    }
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
