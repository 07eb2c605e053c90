//! Dead-letter quarantine: poison inputs are shed, not retried forever.
//!
//! When the breaker decides an input is a showstopper — it has killed its
//! consumer `N` times — the supervisor writes a [`DeadLetter`] describing it
//! and the consumer skips that input from then on. Letters are held in
//! memory for the run's harvest; [`crate::Supervisor::dlq`] reads them.

/// One quarantined input: who it killed, how often, and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeadLetter {
    /// Label of the domain the input kept killing (e.g. `comp:2`).
    pub domain: String,
    /// The workflow step whose input is poisoned.
    pub step: u32,
    /// Deaths attributed to this input before quarantine.
    pub deaths: u32,
    /// Human-readable cause, e.g. `poison-put`.
    pub reason: String,
    /// Virtual time (ns) of the quarantine decision.
    pub at_ns: u64,
}

/// In-memory dead-letter queue.
#[derive(Default)]
pub struct DeadLetterQueue {
    letters: Vec<DeadLetter>,
}

impl DeadLetterQueue {
    /// An empty queue.
    pub fn new() -> DeadLetterQueue {
        DeadLetterQueue::default()
    }

    /// Quarantine `letter`.
    pub fn push(&mut self, letter: DeadLetter) {
        self.letters.push(letter);
    }

    /// Letters quarantined so far, in order.
    pub fn letters(&self) -> &[DeadLetter] {
        &self.letters
    }

    /// Number of letters.
    pub fn len(&self) -> usize {
        self.letters.len()
    }

    /// Is the queue empty?
    pub fn is_empty(&self) -> bool {
        self.letters.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn letter(step: u32) -> DeadLetter {
        DeadLetter {
            domain: "comp:1".to_string(),
            step,
            deaths: 3,
            reason: "poison-put".to_string(),
            at_ns: 42_000 + step as u64,
        }
    }

    #[test]
    fn memory_only_queue() {
        let mut q = DeadLetterQueue::new();
        assert!(q.is_empty());
        q.push(letter(5));
        q.push(letter(9));
        assert_eq!(q.len(), 2);
        assert_eq!(q.letters()[0].step, 5);
        assert_eq!(q.letters()[1].step, 9);
    }
}
