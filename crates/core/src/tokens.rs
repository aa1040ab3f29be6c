//! Token-limited wake-up scheduling.
//!
//! Every waking core draws a large inrush current while its virtual rail
//! recharges. If many cores wake simultaneously the combined di/dt can
//! collapse the shared supply; the token mechanism (the TAP companion
//! work's device) caps the number of *concurrent* wake-ups: a core must
//! hold a token for the duration of its wake ramp. Waiting for a token
//! delays the wake and turns into a performance penalty — the trade
//! experiment R-F8 sweeps.

use mapg_units::{Cycle, Cycles};

use crate::error::MapgError;

/// Grants at most `capacity` concurrent wake-up slots.
///
/// ```
/// use mapg::TokenManager;
/// use mapg_units::{Cycle, Cycles};
///
/// let mut tokens = TokenManager::new(1);
/// let first = tokens.acquire(Cycle::new(100), Cycles::new(10));
/// let second = tokens.acquire(Cycle::new(100), Cycles::new(10));
/// assert_eq!(first, Cycle::new(100));
/// assert_eq!(second, Cycle::new(110), "second wake waits for the token");
/// ```
#[derive(Debug, Clone)]
pub struct TokenManager {
    /// Busy-until time of each token slot.
    slots: Vec<Cycle>,
    grants: u64,
    delayed_grants: u64,
    delay_cycles: u64,
    /// Every granted interval, for exact peak-concurrency computation.
    intervals: Vec<(u64, u64)>,
    obs: mapg_obs::ObsHandle,
}

impl TokenManager {
    /// Creates a manager with `capacity` tokens.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero — with no tokens no core could ever
    /// wake.
    pub fn new(capacity: usize) -> Self {
        match TokenManager::try_new(capacity) {
            Ok(manager) => manager,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible constructor for user-supplied capacities.
    ///
    /// # Errors
    ///
    /// Returns [`MapgError::InvalidConfig`] when `capacity` is zero.
    pub fn try_new(capacity: usize) -> Result<Self, MapgError> {
        if capacity == 0 {
            return Err(MapgError::invalid("token capacity must be non-zero"));
        }
        Ok(TokenManager {
            slots: vec![Cycle::ZERO; capacity],
            grants: 0,
            delayed_grants: 0,
            delay_cycles: 0,
            intervals: Vec::new(),
            obs: mapg_obs::ObsHandle::disabled(),
        })
    }

    /// Attaches an observability handle; grant counts and token-wait
    /// distributions flow through it.
    pub fn set_obs(&mut self, obs: mapg_obs::ObsHandle) {
        self.obs = obs;
    }

    /// Token capacity.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Requests a wake slot of length `duration` no earlier than `ready`.
    /// Returns the granted start time (`>= ready`); the token is held for
    /// `[start, start + duration)`.
    pub fn acquire(&mut self, ready: Cycle, duration: Cycles) -> Cycle {
        // Earliest-available slot.
        let slot = self
            .slots
            .iter()
            .enumerate()
            .min_by_key(|(_, &busy_until)| busy_until)
            .map(|(i, _)| i)
            .expect("capacity is non-zero");
        let start = ready.max(self.slots[slot]);
        self.slots[slot] = start + duration;
        self.grants += 1;
        self.obs.count(mapg_obs::Metric::TokenGrants, 1);
        self.obs
            .observe(mapg_obs::Metric::TokenWait, (start - ready).raw());
        if start > ready {
            self.delayed_grants += 1;
            self.delay_cycles += (start - ready).raw();
        }
        self.intervals.push((start.raw(), (start + duration).raw()));
        start
    }

    /// Total grants issued.
    pub fn grants(&self) -> u64 {
        self.grants
    }

    /// Grants that had to wait for a token.
    pub fn delayed_grants(&self) -> u64 {
        self.delayed_grants
    }

    /// Total cycles of token-wait added across all grants.
    pub fn delay_cycles(&self) -> u64 {
        self.delay_cycles
    }

    /// Highest number of simultaneously held tokens over the whole run,
    /// computed exactly by a sweep over the granted intervals (a token is
    /// held for `[start, start + duration)`).
    pub fn peak_concurrency(&self) -> usize {
        let mut events: Vec<(u64, i32)> = Vec::with_capacity(self.intervals.len() * 2);
        for &(start, end) in &self.intervals {
            events.push((start, 1));
            events.push((end, -1));
        }
        // Ends sort before starts at the same instant: intervals are
        // half-open.
        events.sort_unstable_by_key(|&(t, delta)| (t, delta));
        let mut live = 0i32;
        let mut peak = 0i32;
        for (_, delta) in events {
            live += delta;
            peak = peak.max(live);
        }
        peak as usize
    }

    /// Audits token conservation: every grant left an interval, no
    /// interval runs backwards, delayed-grant bookkeeping is mutually
    /// consistent, and concurrency never exceeded capacity. Returns one
    /// message per broken law.
    pub fn audit(&self) -> Vec<String> {
        let mut problems = Vec::new();
        if self.grants != self.intervals.len() as u64 {
            problems.push(format!(
                "token ledger: {} grants but {} recorded intervals",
                self.grants,
                self.intervals.len()
            ));
        }
        if let Some(&(start, end)) = self.intervals.iter().find(|&&(start, end)| end < start) {
            problems.push(format!(
                "token ledger: interval runs backwards ({start} → {end})"
            ));
        }
        if self.delayed_grants > self.grants {
            problems.push(format!(
                "token ledger: {} delayed grants exceed {} total grants",
                self.delayed_grants, self.grants
            ));
        }
        if self.delay_cycles > 0 && self.delayed_grants == 0 {
            problems.push(format!(
                "token ledger: {} delay cycles with zero delayed grants",
                self.delay_cycles
            ));
        }
        let peak = self.peak_concurrency();
        if peak > self.capacity() {
            problems.push(format!(
                "token conservation: peak concurrency {peak} exceeds \
                 capacity {}",
                self.capacity()
            ));
        }
        problems
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_grants_up_to_capacity() {
        let mut t = TokenManager::new(3);
        for _ in 0..3 {
            assert_eq!(t.acquire(Cycle::new(50), Cycles::new(10)), Cycle::new(50));
        }
        // Fourth must wait.
        assert_eq!(t.acquire(Cycle::new(50), Cycles::new(10)), Cycle::new(60));
        assert_eq!(t.grants(), 4);
        assert_eq!(t.delayed_grants(), 1);
        assert_eq!(t.delay_cycles(), 10);
        assert_eq!(t.peak_concurrency(), 3);
    }

    #[test]
    fn tokens_free_over_time() {
        let mut t = TokenManager::new(1);
        assert_eq!(t.acquire(Cycle::new(0), Cycles::new(10)), Cycle::new(0));
        // Requested after the first released: no delay.
        assert_eq!(t.acquire(Cycle::new(20), Cycles::new(10)), Cycle::new(20));
        assert_eq!(t.delayed_grants(), 0);
    }

    #[test]
    fn cascading_delays_serialize() {
        let mut t = TokenManager::new(1);
        let starts: Vec<_> = (0..4)
            .map(|_| t.acquire(Cycle::new(0), Cycles::new(25)).raw())
            .collect();
        assert_eq!(starts, vec![0, 25, 50, 75]);
        assert_eq!(t.delay_cycles(), 25 + 50 + 75);
    }

    #[test]
    #[should_panic(expected = "token capacity")]
    fn zero_capacity_rejected() {
        let _ = TokenManager::new(0);
    }

    #[test]
    fn capacity_accessor() {
        assert_eq!(TokenManager::new(7).capacity(), 7);
    }

    #[test]
    fn try_new_reports_zero_capacity() {
        let err = TokenManager::try_new(0).unwrap_err();
        assert!(err.to_string().contains("token capacity"), "{err}");
        assert!(TokenManager::try_new(2).is_ok());
    }

    #[test]
    fn audit_passes_on_normal_use() {
        let mut t = TokenManager::new(2);
        for i in 0..10u64 {
            t.acquire(Cycle::new(i * 3), Cycles::new(10));
        }
        assert!(t.audit().is_empty(), "{:?}", t.audit());
    }
}
