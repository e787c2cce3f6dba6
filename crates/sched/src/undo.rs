//! Undo logs for in-place, reversible candidate evaluation.
//!
//! The allocator tries a candidate by mutating the architecture in place
//! and rolling the mutations back when the candidate is rejected. An
//! [`UndoLog`] is the stack that makes that possible: while at least one
//! checkpoint is open, every reversible mutation pushes an entry
//! describing how to revert it. Checkpoints nest — each is a mark into
//! the same stack — so an inner attempt (a preemption victim) can roll
//! back alone while an outer one (the whole candidate) still holds
//! everything recorded since its own mark.

/// A stack of reversible mutations, recorded only while a checkpoint is
/// open.
///
/// # Examples
///
/// ```
/// use crusade_sched::UndoLog;
///
/// let mut v = vec![1];
/// let mut log = UndoLog::default();
/// log.record(|| 0usize); // no checkpoint open: nothing recorded
/// let mark = log.open();
/// v.push(2);
/// log.record(|| v.len() - 1);
/// while let Some(at) = log.pop_after(mark) {
///     v.truncate(at);
/// }
/// log.close();
/// assert_eq!(v, [1]);
/// ```
#[derive(Debug, Clone)]
pub struct UndoLog<T> {
    open: usize,
    entries: Vec<T>,
}

impl<T> Default for UndoLog<T> {
    fn default() -> Self {
        UndoLog {
            open: 0,
            entries: Vec::new(),
        }
    }
}

impl<T> UndoLog<T> {
    /// Opens a (possibly nested) checkpoint and returns its mark.
    pub fn open(&mut self) -> usize {
        self.open += 1;
        self.entries.len()
    }

    /// Records the undo entry built by `entry` when a checkpoint is open;
    /// without one, mutations are permanent and nothing is built.
    #[inline]
    pub fn record(&mut self, entry: impl FnOnce() -> T) {
        if self.open > 0 {
            self.entries.push(entry());
        }
    }

    /// Pops the newest entry recorded after `mark`, if any. Applying the
    /// popped entries in order reverts the mutations newest-first.
    pub fn pop_after(&mut self, mark: usize) -> Option<T> {
        if self.entries.len() > mark {
            self.entries.pop()
        } else {
            None
        }
    }

    /// Closes the innermost checkpoint, after it was rolled back or
    /// committed. A committed inner checkpoint leaves its entries for the
    /// enclosing one; closing the outermost drops the whole log.
    pub fn close(&mut self) {
        debug_assert!(self.open > 0, "close without an open checkpoint");
        self.open = self.open.saturating_sub(1);
        if self.open == 0 {
            self.entries.clear();
        }
    }
}
