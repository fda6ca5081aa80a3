//! The Lamport logical clock of §4.1: rules CA1 and CA2.
//!
//! Each process maintains exactly **one** clock irrespective of how many
//! groups it belongs to — this is what makes Newtop's multi-group total
//! order (MD4') fall out of the single message-number ordering.

use newtop_types::Msn;

/// A process-wide Lamport counter.
///
/// # Examples
///
/// ```
/// use newtop_core::LogicalClock;
/// use newtop_types::Msn;
///
/// let mut lc = LogicalClock::new();
/// assert_eq!(lc.advance_for_send(), Msn(1)); // CA1
/// lc.observe(Msn(10));                       // CA2
/// assert_eq!(lc.advance_for_send(), Msn(11));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct LogicalClock {
    value: Msn,
}

impl LogicalClock {
    /// A clock at zero.
    #[must_use]
    pub fn new() -> LogicalClock {
        LogicalClock { value: Msn::ZERO }
    }

    /// The current counter value.
    #[must_use]
    pub fn value(&self) -> Msn {
        self.value
    }

    /// CA1: increments the clock and returns the number to stamp on an
    /// outgoing message ("Before sending m, Pi increments LCi by one, and
    /// assigns the incremented value to the message number field m.c").
    pub fn advance_for_send(&mut self) -> Msn {
        self.value = self.value.next();
        self.value
    }

    /// CA2: folds a received message number into the clock
    /// ("When Pi receives m, it sets LCi = max{LCi, m.c}").
    pub fn observe(&mut self, c: Msn) {
        if c > self.value && !c.is_infinite() {
            self.value = c;
        }
    }

    /// Raises the clock to at least `floor` (used by group formation step 5,
    /// which sets `LCk` to the agreed start-number-max if larger).
    pub fn raise_to(&mut self, floor: Msn) {
        self.observe(floor);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ca1_strictly_increases() {
        let mut lc = LogicalClock::new();
        let a = lc.advance_for_send();
        let b = lc.advance_for_send();
        assert!(b > a);
        assert_eq!(b, Msn(2));
    }

    #[test]
    fn ca2_takes_max() {
        let mut lc = LogicalClock::new();
        lc.observe(Msn(5));
        assert_eq!(lc.value(), Msn(5));
        lc.observe(Msn(3));
        assert_eq!(lc.value(), Msn(5));
    }

    #[test]
    fn ca2_ignores_infinity_sentinel() {
        let mut lc = LogicalClock::new();
        lc.observe(Msn::INFINITY);
        assert_eq!(lc.value(), Msn::ZERO);
    }

    /// Property pr1: consecutive sends by one process carry increasing
    /// numbers.
    #[test]
    fn pr1_send_numbers_increase() {
        let mut lc = LogicalClock::new();
        let mut last = Msn::ZERO;
        for _ in 0..100 {
            let c = lc.advance_for_send();
            assert!(c > last);
            last = c;
        }
    }

    /// Property pr2: a send after a delivery (which implies a receive, hence
    /// CA2) carries a larger number than the delivered message.
    #[test]
    fn pr2_send_after_receive_exceeds_received() {
        let mut lc = LogicalClock::new();
        lc.observe(Msn(41));
        assert!(lc.advance_for_send() > Msn(41));
    }

    #[test]
    fn raise_to_is_monotone() {
        let mut lc = LogicalClock::new();
        lc.raise_to(Msn(9));
        lc.raise_to(Msn(4));
        assert_eq!(lc.value(), Msn(9));
    }
}
