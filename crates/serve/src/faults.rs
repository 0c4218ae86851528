//! Deterministic fault injection and graceful-degradation policy.
//!
//! A [`FaultSchedule`] is a time-sorted list of [`FaultEvent`]s the
//! cluster event loop injects between serving events: replica crashes
//! and recoveries, single-device loss, link-bandwidth degradation, and
//! straggler slowdowns. Schedules are either *scripted*
//! ([`FaultSchedule::from_script`]) or *rate-driven*
//! ([`FaultSchedule::generate`]): a seeded Poisson process per replica
//! with exponential repair times, so the same seed always injects the
//! same faults — failures are as reproducible as everything else in the
//! simulator.
//!
//! A [`DegradationPolicy`] decides what happens to the work a fault
//! displaces:
//!
//! * [`PolicyKind::FailFast`] — every displaced request is dropped on
//!   the spot (the pre-fault serving stack's implicit behaviour, made
//!   explicit);
//! * [`PolicyKind::RetryFailover`] — displaced requests are re-admitted
//!   through the balancer with capped exponential backoff and a retry
//!   budget; requests that exhaust the budget (or outlive the
//!   per-request timeout) become explicit `Dropped`/`TimedOut`
//!   outcomes;
//! * [`PolicyKind::RetryFailoverShed`] — retry + failover plus an
//!   admission controller: when the outstanding work across *healthy*
//!   replicas exceeds what the post-failure capacity can drain, new
//!   admissions are shed instead of queued, protecting the tail of the
//!   requests already admitted.
//!
//! An empty schedule with an inert policy ([`FaultPlan::none`])
//! reproduces the healthy-path serving timeline bit for bit — the
//! degeneracy the property tests pin.
//!
//! In the cluster loop a crash aborts the replica's in-flight batches
//! and displaces them together with its queue; a recovery brings fresh
//! hardware back behind a weight reload; a device loss blocks dispatch
//! while the lost experts are re-replicated onto the survivors (the
//! scheduler re-profiles from the re-estimation window) and stretches
//! later expert compute by `devices / (devices - lost)`. A fault aimed
//! at a replica that is down or retired is a no-op. Each crash that
//! displaced work is timed until all of that work reached a terminal
//! outcome ([`ClusterOutcome::recovery_times`]).
//!
//! Faults compose: each family owns its own factors on the replica, so
//! overlapping episodes of different families multiply. Expert compute
//! stretches by the lost-device, straggler and gray factors together;
//! link bandwidth is the link-degrade fraction times the gray NIC
//! fraction. An end event resets only its own family's factors, and a
//! crash or recovery resets them all.
//!
//! [`ClusterOutcome::recovery_times`]: crate::ClusterOutcome::recovery_times

use std::collections::{BTreeMap, BTreeSet};

use lina_simcore::{Rng, SimDuration, SimTime};

/// What a single fault event does to its replica.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultKind {
    /// The whole replica server goes down: in-flight batches abort,
    /// queued requests are displaced, and the balancer stops routing to
    /// it until a [`FaultKind::ReplicaRecover`] event.
    ReplicaCrash,
    /// The replica comes back (fresh hardware: every fault factor is
    /// cleared) after paying a weight-reload cost before its first
    /// dispatch.
    ReplicaRecover,
    /// One GPU dies but the replica stays up: dispatching blocks while
    /// the lost experts are re-replicated onto the survivors (a modeled
    /// PCIe transfer), and every later batch's expert compute stretches
    /// by `devices / (devices - 1)`.
    DeviceLoss,
    /// The replica's link bandwidth drops to `scale` of nominal
    /// (`0 < scale < 1`); collectives re-share the degraded links. The
    /// fraction multiplies with an active gray episode's `nic_scale`.
    LinkDegrade {
        /// Remaining fraction of nominal link bandwidth.
        scale: f64,
    },
    /// The link-degrade fraction returns to 1; an active gray episode's
    /// NIC fraction still applies.
    LinkRestore,
    /// Expert compute on the replica slows by `factor` (> 1) — a
    /// thermally throttled or contended straggler GPU.
    StragglerStart {
        /// Compute slowdown factor.
        factor: f64,
    },
    /// The straggler recovers to full speed.
    StragglerEnd,
    /// A *gray* failure: the replica silently degrades — expert compute
    /// stretches by `compute_scale` (>= 1) and link bandwidth drops to
    /// `nic_scale` of nominal — but keeps answering, and **the control
    /// plane is never told**: unlike every other fault kind, the health
    /// bit stays up and only a latency-inference detector
    /// ([`crate::health`]) can notice. `nic_scale` multiplies with an
    /// active link degradation, `compute_scale` with the device-loss
    /// and straggler stretches.
    GrayDegrade {
        /// Compute slowdown factor (1.0 = none).
        compute_scale: f64,
        /// Remaining fraction of nominal link bandwidth.
        nic_scale: f64,
    },
    /// The gray episode ends: its compute and NIC factors return to 1
    /// (again without telling the control plane); a link degradation
    /// or straggler in progress still applies.
    GrayClear,
}

/// One timed fault on one replica.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultEvent {
    /// Injection instant.
    pub at: SimTime,
    /// Target replica index.
    pub replica: usize,
    /// What happens.
    pub kind: FaultKind,
}

/// Rates and magnitudes for a generated fault schedule. All rates are
/// per replica-second; repair times draw from exponential distributions
/// with the given means.
#[derive(Clone, Debug)]
pub struct FaultRateConfig {
    /// Replica crash rate.
    pub crash_rate: f64,
    /// Mean time from crash to recovery.
    pub mean_recovery: SimDuration,
    /// Single-device-loss rate.
    pub device_loss_rate: f64,
    /// Link-degradation onset rate.
    pub degrade_rate: f64,
    /// Bandwidth fraction that survives a degradation.
    pub degrade_scale: f64,
    /// Mean time from degradation to restore.
    pub mean_degrade: SimDuration,
    /// Straggler onset rate.
    pub straggler_rate: f64,
    /// Straggler compute slowdown factor.
    pub straggler_factor: f64,
    /// Mean straggler episode length.
    pub mean_straggle: SimDuration,
    /// Gray-failure onset rate (silent compute + NIC degradation).
    pub gray_rate: f64,
    /// Compute slowdown during a gray episode.
    pub gray_compute: f64,
    /// Surviving link-bandwidth fraction during a gray episode.
    pub gray_nic: f64,
    /// Mean gray episode length.
    pub mean_gray: SimDuration,
    /// Flapping-link onset rate: short NIC-only gray episodes that keep
    /// toggling, the classic probation-testing pattern.
    pub flap_rate: f64,
    /// Surviving link-bandwidth fraction during a flap.
    pub flap_nic: f64,
    /// Mean flap episode length (short relative to `mean_gray`).
    pub mean_flap: SimDuration,
}

impl FaultRateConfig {
    /// A schedule of crashes only, at `crash_rate` per replica-second
    /// with `mean_recovery` repair times.
    pub fn crashes(crash_rate: f64, mean_recovery: SimDuration) -> Self {
        FaultRateConfig {
            crash_rate,
            mean_recovery,
            device_loss_rate: 0.0,
            degrade_rate: 0.0,
            degrade_scale: 0.5,
            mean_degrade: SimDuration::ZERO,
            straggler_rate: 0.0,
            straggler_factor: 2.0,
            mean_straggle: SimDuration::ZERO,
            gray_rate: 0.0,
            gray_compute: 2.0,
            gray_nic: 1.0,
            mean_gray: SimDuration::ZERO,
            flap_rate: 0.0,
            flap_nic: 0.5,
            mean_flap: SimDuration::ZERO,
        }
    }

    /// A schedule of gray failures only: silent (`compute` stretch x
    /// `nic` bandwidth fraction) episodes at `rate` per replica-second
    /// with `mean_gray` episode lengths. Nothing flips the health bit.
    pub fn gray(rate: f64, compute: f64, nic: f64, mean_gray: SimDuration) -> Self {
        FaultRateConfig {
            gray_rate: rate,
            gray_compute: compute,
            gray_nic: nic,
            mean_gray,
            ..FaultRateConfig::crashes(0.0, SimDuration::ZERO)
        }
    }
}

/// A deterministic, time-sorted fault script.
#[derive(Clone, Debug, Default)]
pub struct FaultSchedule {
    events: Vec<FaultEvent>,
    /// Sorted [`FaultKind::ReplicaRecover`] instants, precomputed so
    /// [`FaultSchedule::next_recovery_after`] (called per event-loop
    /// iteration during a total outage) is a binary search instead of a
    /// linear scan over the whole script.
    recoveries: Vec<SimTime>,
}

impl FaultSchedule {
    /// The empty schedule: nothing ever fails.
    pub fn none() -> Self {
        FaultSchedule {
            events: Vec::new(),
            recoveries: Vec::new(),
        }
    }

    /// A scripted schedule; events are stably sorted by injection time
    /// (equal-time events keep script order).
    pub fn from_script(mut events: Vec<FaultEvent>) -> Self {
        events.sort_by_key(|e| e.at);
        let recoveries = events
            .iter()
            .filter(|e| e.kind == FaultKind::ReplicaRecover)
            .map(|e| e.at)
            .collect();
        FaultSchedule { events, recoveries }
    }

    /// Generates a seeded rate-driven schedule over `[0, horizon)` for
    /// `replicas` replicas: per replica, crashes arrive Poisson at
    /// `crash_rate` with exponential repair (each crash is followed by
    /// its recovery, and nothing else targets a down replica in
    /// between), while device loss and link-degrade, straggler, gray and
    /// flap episodes arrive on independent substreams. The same
    /// arguments always produce the same schedule.
    pub fn generate(
        rates: &FaultRateConfig,
        replicas: usize,
        horizon: SimDuration,
        seed: u64,
    ) -> Self {
        use FaultKind::*;
        // One row per family: substream, onset rate, start kind, and the
        // mean episode length with its end kind (`None`: a one-shot
        // fault). Flaps are NIC-only gray episodes on their own stream;
        // overlaps with the main gray stream are suppressed below.
        #[rustfmt::skip]
        let families = [
            (1, rates.crash_rate, ReplicaCrash, Some((rates.mean_recovery, ReplicaRecover))),
            (2, rates.device_loss_rate, DeviceLoss, None),
            (3, rates.degrade_rate, LinkDegrade { scale: rates.degrade_scale },
                Some((rates.mean_degrade, LinkRestore))),
            (4, rates.straggler_rate, StragglerStart { factor: rates.straggler_factor },
                Some((rates.mean_straggle, StragglerEnd))),
            (5, rates.gray_rate,
                GrayDegrade { compute_scale: rates.gray_compute, nic_scale: rates.gray_nic },
                Some((rates.mean_gray, GrayClear))),
            (6, rates.flap_rate, GrayDegrade { compute_scale: 1.0, nic_scale: rates.flap_nic },
                Some((rates.mean_flap, GrayClear))),
        ];
        let root = Rng::new(seed);
        let mut events = Vec::new();
        let horizon_s = horizon.as_secs_f64();
        // Exponential inter-arrival via inverse CDF on a dedicated
        // substream per (replica, fault family).
        let exp = |rng: &mut Rng, rate: f64| -> f64 {
            let u = rng.f64().max(f64::MIN_POSITIVE);
            -u.ln() / rate
        };
        for replica in 0..replicas {
            for &(k, rate, start, episode) in families.iter().filter(|f| f.1 > 0.0) {
                let mut rng = root.derive(k + 8 * replica as u64);
                let mut push = |t: f64, kind| {
                    events.push(FaultEvent {
                        at: SimTime::from_secs_f64(t),
                        replica,
                        kind,
                    })
                };
                let mut t = exp(&mut rng, rate);
                while t < horizon_s {
                    push(t, start);
                    if let Some((mean, end)) = episode {
                        t += exp(&mut rng, 1.0 / mean.as_secs_f64().max(f64::MIN_POSITIVE));
                        push(t, end);
                    }
                    t += exp(&mut rng, rate);
                }
            }
        }
        events.sort_by_key(|e| e.at);
        FaultSchedule::from_script(Self::suppress_overlaps(events, replicas))
    }

    /// Drops generated events that would start an episode already in
    /// progress (or end one that is not): per replica, straggler and
    /// gray episodes each follow a strict start/end alternation, so
    /// independent rate streams (e.g. gray + flap, or a future second
    /// straggler source) can never stack or emit dangling clears.
    /// `events` must already be sorted by time.
    fn suppress_overlaps(events: Vec<FaultEvent>, replicas: usize) -> Vec<FaultEvent> {
        let mut straggling = vec![false; replicas];
        let mut gray = vec![false; replicas];
        events
            .into_iter()
            .filter(|e| {
                let flag = match e.kind {
                    FaultKind::StragglerStart { .. } | FaultKind::StragglerEnd => {
                        &mut straggling[e.replica]
                    }
                    FaultKind::GrayDegrade { .. } | FaultKind::GrayClear => &mut gray[e.replica],
                    _ => return true,
                };
                let starts = matches!(
                    e.kind,
                    FaultKind::StragglerStart { .. } | FaultKind::GrayDegrade { .. }
                );
                if *flag == starts {
                    return false; // already in (or out of) the episode
                }
                *flag = starts;
                true
            })
            .collect()
    }

    /// The events, ascending by time.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// No events at all.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Earliest [`FaultKind::ReplicaRecover`] strictly after `t` (any
    /// replica) — when a request finds every replica down, the retry
    /// policies defer its admission to this instant.
    pub fn next_recovery_after(&self, t: SimTime) -> Option<SimTime> {
        let i = self.recoveries.partition_point(|&r| r <= t);
        self.recoveries.get(i).copied()
    }

    /// Validates event targets against the cluster shape.
    ///
    /// # Panics
    ///
    /// Panics if an event targets a replica index `>= replicas`, a
    /// degradation scale is outside `(0, 1]`, or a straggler factor is
    /// below 1.
    pub fn validate(&self, replicas: usize) {
        for e in &self.events {
            assert!(
                e.replica < replicas,
                "fault at {} targets replica {} of {replicas}",
                e.at,
                e.replica
            );
            match e.kind {
                FaultKind::LinkDegrade { scale } => assert!(
                    scale > 0.0 && scale <= 1.0,
                    "link degrade scale {scale} outside (0, 1]"
                ),
                FaultKind::StragglerStart { factor } => assert!(
                    factor.is_finite() && factor >= 1.0,
                    "straggler factor {factor} below 1"
                ),
                FaultKind::GrayDegrade {
                    compute_scale,
                    nic_scale,
                } => {
                    assert!(
                        compute_scale.is_finite() && compute_scale >= 1.0,
                        "gray compute scale {compute_scale} below 1"
                    );
                    assert!(
                        nic_scale > 0.0 && nic_scale <= 1.0,
                        "gray nic scale {nic_scale} outside (0, 1]"
                    );
                }
                _ => {}
            }
        }
    }
}

/// A replica's fault factors, the one place faults combine: each family
/// sets only its own factors, so overlapping episodes of different
/// families multiply instead of overwriting each other. A crash or a
/// recovery resets them all (the hardware is gone or fresh).
pub(crate) struct Degradation {
    /// GPUs lost to [`FaultKind::DeviceLoss`] since the last reset.
    devices_lost: usize,
    /// Expert-compute stretch from lost devices (survivors absorb the
    /// lost shard): `devices / (devices - devices_lost)`.
    lost: f64,
    /// Expert-compute stretch from a straggler episode.
    straggler: f64,
    /// Expert-compute stretch from a gray episode.
    gray_compute: f64,
    /// Surviving link-bandwidth fraction from a link-degrade episode.
    link: f64,
    /// Surviving link-bandwidth fraction from a gray episode.
    gray_nic: f64,
}

impl Default for Degradation {
    fn default() -> Self {
        Degradation {
            devices_lost: 0,
            lost: 1.0,
            straggler: 1.0,
            gray_compute: 1.0,
            link: 1.0,
            gray_nic: 1.0,
        }
    }
}

impl Degradation {
    /// Sets the factors an episode event's family owns. Panics on a
    /// crash, recovery or device loss, which the cluster handles.
    pub(crate) fn apply(&mut self, kind: FaultKind) {
        match kind {
            FaultKind::LinkDegrade { scale } => self.link = scale,
            FaultKind::LinkRestore => self.link = 1.0,
            FaultKind::StragglerStart { factor } => self.straggler = factor,
            FaultKind::StragglerEnd => self.straggler = 1.0,
            FaultKind::GrayDegrade {
                compute_scale,
                nic_scale,
            } => (self.gray_compute, self.gray_nic) = (compute_scale, nic_scale),
            FaultKind::GrayClear => (self.gray_compute, self.gray_nic) = (1.0, 1.0),
            _ => unreachable!("{kind:?} is not an episode fault"),
        }
    }

    /// Loses one more of `devices` GPUs. Returns `false`, changing
    /// nothing, when that would be the last one.
    pub(crate) fn lose_device(&mut self, devices: usize) -> bool {
        if self.devices_lost + 1 >= devices {
            return false;
        }
        self.devices_lost += 1;
        self.lost = devices as f64 / (devices - self.devices_lost) as f64;
        true
    }

    /// The expert-compute stretch the control plane can see: lost
    /// devices and stragglers, but not gray faults.
    pub(crate) fn visible_stretch(&self) -> f64 {
        self.lost * self.straggler
    }

    /// The expert-compute stretch a submitted plan runs under.
    pub(crate) fn compute_stretch(&self) -> f64 {
        self.visible_stretch() * self.gray_compute
    }

    /// The link-bandwidth multiplier the replica's executor runs under.
    pub(crate) fn link_scale(&self) -> f64 {
        self.link * self.gray_nic
    }
}

/// How the cluster degrades when faults displace work.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PolicyKind {
    /// Drop every displaced request immediately.
    FailFast,
    /// Re-admit displaced requests through the balancer with capped
    /// exponential backoff and a retry budget.
    RetryFailover,
    /// Retry + failover plus queue-depth admission control: shed new
    /// admissions when the healthy replicas' outstanding work exceeds
    /// the shed threshold.
    RetryFailoverShed,
}

impl PolicyKind {
    /// Stable lowercase name for configs and metric labels.
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::FailFast => "fail-fast",
            PolicyKind::RetryFailover => "retry-failover",
            PolicyKind::RetryFailoverShed => "retry-failover-shed",
        }
    }
}

/// The graceful-degradation knobs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DegradationPolicy {
    /// Strategy family.
    pub kind: PolicyKind,
    /// Re-admissions allowed per request before it is dropped
    /// (ignored by [`PolicyKind::FailFast`]).
    pub retry_budget: u32,
    /// Backoff before the first re-admission; attempt `n` waits
    /// `backoff_base * 2^(n-1)`, capped at `backoff_cap`.
    pub backoff_base: SimDuration,
    /// Upper bound on any single backoff wait.
    pub backoff_cap: SimDuration,
    /// A request still undispatched this long after its *original*
    /// arrival becomes a `TimedOut` outcome (`None`: requests wait
    /// forever).
    pub request_timeout: Option<SimDuration>,
    /// Shed threshold for [`PolicyKind::RetryFailoverShed`], in units
    /// of full batches per healthy replica: an admission is shed when
    /// the healthy replicas' outstanding tokens exceed
    /// `shed_batches_per_replica * healthy * max_batch_tokens`.
    pub shed_batches_per_replica: f64,
    /// Retry-jitter width in `[0, 1]`: attempt `n`'s backoff is
    /// multiplied by a seeded per-(request, attempt) factor uniform in
    /// `[1 - jitter/2, 1 + jitter/2]`, de-synchronizing the retry
    /// stampede after a mass displacement (a crash dumps a whole
    /// queue's worth of requests onto identical backoff timers). `0.0`
    /// reproduces the unjittered timeline bit for bit.
    pub jitter: f64,
}

impl DegradationPolicy {
    /// Drop displaced work immediately; no timeouts, no shedding. This
    /// is the inert policy: with an empty schedule it can never fire.
    pub fn fail_fast() -> Self {
        DegradationPolicy {
            kind: PolicyKind::FailFast,
            retry_budget: 0,
            backoff_base: SimDuration::ZERO,
            backoff_cap: SimDuration::ZERO,
            request_timeout: None,
            shed_batches_per_replica: f64::INFINITY,
            jitter: 0.0,
        }
    }

    /// Retry + failover defaults: 3 attempts, 1 ms base backoff capped
    /// at 8 ms, and a `timeout` bound on total sojourn.
    pub fn retry_failover(timeout: Option<SimDuration>) -> Self {
        DegradationPolicy {
            kind: PolicyKind::RetryFailover,
            retry_budget: 3,
            backoff_base: SimDuration::from_millis(1),
            backoff_cap: SimDuration::from_millis(8),
            request_timeout: timeout,
            shed_batches_per_replica: f64::INFINITY,
            jitter: 0.0,
        }
    }

    /// Retry + failover + shedding defaults: as
    /// [`DegradationPolicy::retry_failover`], shedding past 6 full
    /// batches of outstanding work per healthy replica.
    pub fn retry_failover_shed(timeout: Option<SimDuration>) -> Self {
        DegradationPolicy {
            shed_batches_per_replica: 6.0,
            kind: PolicyKind::RetryFailoverShed,
            ..DegradationPolicy::retry_failover(timeout)
        }
    }

    /// Whether displaced requests are re-admitted rather than dropped.
    pub fn retries(&self) -> bool {
        matches!(
            self.kind,
            PolicyKind::RetryFailover | PolicyKind::RetryFailoverShed
        )
    }

    /// Whether the admission controller sheds new arrivals under
    /// post-failure overload.
    pub fn sheds(&self) -> bool {
        self.kind == PolicyKind::RetryFailoverShed
    }

    /// The capped exponential backoff before re-admission attempt
    /// `attempt` (1-based).
    pub fn backoff(&self, attempt: u32) -> SimDuration {
        let exp = attempt.saturating_sub(1).min(30);
        let wait = self.backoff_base * 2u64.pow(exp);
        wait.min(self.backoff_cap)
    }

    /// [`DegradationPolicy::backoff`] with seeded per-(request, attempt)
    /// jitter off the run's `retry` seed substream. Deriving a fresh stream
    /// per (request, attempt) keeps the factor independent of retry
    /// *order*, so timelines stay reproducible under failover races.
    /// With `jitter == 0.0` this IS `backoff` — the multiply is skipped
    /// entirely, so the unjittered timeline is reproduced bit for bit.
    pub fn backoff_jittered(&self, attempt: u32, request: usize, retry: &Rng) -> SimDuration {
        let base = self.backoff(attempt);
        if self.jitter == 0.0 {
            return base;
        }
        let mut rng = retry.derive(((request as u64) << 8) | u64::from(attempt & 0xFF));
        base.mul_f64(1.0 + self.jitter * (rng.f64() - 0.5))
    }

    /// Validates the knobs.
    ///
    /// # Panics
    ///
    /// Panics on a zero timeout, a backoff cap below the base, a
    /// non-positive shed threshold, or a jitter outside `[0, 1]`.
    pub fn validate(&self) {
        assert!(
            self.request_timeout != Some(SimDuration::ZERO),
            "faults: request_timeout must be > 0"
        );
        if self.retries() && self.retry_budget > 0 {
            assert!(
                self.backoff_cap >= self.backoff_base,
                "faults: backoff_cap below backoff_base"
            );
        }
        assert!(
            self.shed_batches_per_replica > 0.0,
            "faults: shed threshold must be > 0"
        );
        assert!(
            (0.0..=1.0).contains(&self.jitter),
            "faults: retry jitter {} outside [0, 1]",
            self.jitter
        );
    }
}

/// A schedule plus the policy that handles it — everything the cluster
/// needs to know about failure.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    /// The timed fault script.
    pub schedule: FaultSchedule,
    /// What happens to displaced work.
    pub policy: DegradationPolicy,
}

impl FaultPlan {
    /// No faults, inert policy: the healthy path, bit for bit.
    pub fn none() -> Self {
        FaultPlan {
            schedule: FaultSchedule::none(),
            policy: DegradationPolicy::fail_fast(),
        }
    }

    /// Validates schedule and policy against the cluster shape.
    ///
    /// # Panics
    ///
    /// Panics if either part is invalid (see
    /// [`FaultSchedule::validate`], [`DegradationPolicy::validate`]).
    pub fn validate(&self, replicas: usize) {
        self.schedule.validate(replicas);
        self.policy.validate();
    }
}

/// Time-to-recover accounting: a crash that displaced work opens a
/// group of the displaced request ids, and the group closes when its
/// last member reaches a terminal outcome. A request displaced again
/// leaves its old group first, which may close it.
#[derive(Default)]
pub(crate) struct RecoveryClock {
    /// Crash instant and still-open member count per group.
    groups: Vec<(SimTime, usize)>,
    /// The group each open displaced request belongs to.
    member_of: BTreeMap<usize, usize>,
}

impl RecoveryClock {
    /// A crash at `at` displaced the requests `ids`, none of which is
    /// in an open group.
    pub(crate) fn crash(&mut self, at: SimTime, ids: BTreeSet<usize>) {
        if ids.is_empty() {
            return;
        }
        let group = self.groups.len();
        for &id in &ids {
            let old = self.member_of.insert(id, group);
            assert!(old.is_none(), "request {id} must leave its old group first");
        }
        self.groups.push((at, ids.len()));
    }

    /// Request `id` left its group at `at` (it reached a terminal
    /// outcome or was displaced again). Returns the group's time to
    /// recover when `id` was its last open member.
    pub(crate) fn leave(&mut self, id: usize, at: SimTime) -> Option<SimDuration> {
        let group = self.member_of.remove(&id)?;
        let (opened, open) = &mut self.groups[group];
        *open -= 1;
        (*open == 0).then(|| at.saturating_since(*opened))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scripted_schedules_sort_by_time() {
        let s = FaultSchedule::from_script(vec![
            FaultEvent {
                at: SimTime::from_millis(50),
                replica: 1,
                kind: FaultKind::ReplicaRecover,
            },
            FaultEvent {
                at: SimTime::from_millis(10),
                replica: 1,
                kind: FaultKind::ReplicaCrash,
            },
        ]);
        assert_eq!(s.events()[0].kind, FaultKind::ReplicaCrash);
        assert_eq!(
            s.next_recovery_after(SimTime::from_millis(10)),
            Some(SimTime::from_millis(50))
        );
        assert_eq!(s.next_recovery_after(SimTime::from_millis(50)), None);
    }

    #[test]
    fn generated_schedules_are_deterministic_and_alternate() {
        let rates = FaultRateConfig::crashes(2.0, SimDuration::from_millis(200));
        let horizon = SimDuration::from_secs_f64(5.0);
        let a = FaultSchedule::generate(&rates, 3, horizon, 42);
        let b = FaultSchedule::generate(&rates, 3, horizon, 42);
        assert_eq!(a.events(), b.events());
        assert!(!a.is_empty(), "5 replica-crashes expected on average");
        let c = FaultSchedule::generate(&rates, 3, horizon, 43);
        assert_ne!(a.events(), c.events(), "different seeds differ");
        // Per replica: strict crash/recover alternation starting with a
        // crash.
        for r in 0..3 {
            let mut expect_crash = true;
            for e in a.events().iter().filter(|e| e.replica == r) {
                let want = if expect_crash {
                    FaultKind::ReplicaCrash
                } else {
                    FaultKind::ReplicaRecover
                };
                assert_eq!(e.kind, want, "replica {r}");
                expect_crash = !expect_crash;
            }
        }
    }

    /// Even with gray and flap streams racing on the same replicas, the
    /// generator never stacks episodes: every replica's gray events (and
    /// straggler events) strictly alternate start → clear, and the
    /// flap stream's NIC-only onsets survive only outside gray episodes.
    #[test]
    fn gray_and_flap_streams_never_overlap() {
        let mut rates = FaultRateConfig::gray(2.0, 4.0, 0.25, SimDuration::from_millis(400));
        rates.flap_rate = 5.0;
        rates.flap_nic = 0.5;
        rates.mean_flap = SimDuration::from_millis(50);
        rates.straggler_rate = 3.0;
        rates.straggler_factor = 2.0;
        rates.mean_straggle = SimDuration::from_millis(100);
        for seed in 0..32u64 {
            let s = FaultSchedule::generate(&rates, 3, SimDuration::from_secs_f64(5.0), seed);
            assert!(!s.is_empty(), "seed {seed}");
            let mut saw_flap_onset = false;
            for r in 0..3 {
                let mut gray = false;
                let mut straggling = false;
                for e in s.events().iter().filter(|e| e.replica == r) {
                    match e.kind {
                        FaultKind::GrayDegrade { compute_scale, .. } => {
                            assert!(!gray, "seed {seed}: replica {r} double gray onset");
                            gray = true;
                            saw_flap_onset |= compute_scale == 1.0;
                        }
                        FaultKind::GrayClear => {
                            assert!(gray, "seed {seed}: replica {r} dangling gray clear");
                            gray = false;
                        }
                        FaultKind::StragglerStart { .. } => {
                            assert!(!straggling, "seed {seed}: replica {r} double straggler");
                            straggling = true;
                        }
                        FaultKind::StragglerEnd => {
                            assert!(straggling, "seed {seed}: replica {r} dangling end");
                            straggling = false;
                        }
                        other => panic!("unexpected kind {other:?}"),
                    }
                }
            }
            if saw_flap_onset {
                return; // both streams contributed at least once
            }
        }
        panic!("no flap onset survived across 32 seeds");
    }

    /// Pins the generator with all six families armed on three
    /// replicas: the digest folds every event's instant, replica, kind
    /// and magnitudes over two seeds.
    #[test]
    fn generated_schedule_with_every_family_is_pinned() {
        let rates = FaultRateConfig {
            crash_rate: 0.5,
            mean_recovery: SimDuration::from_millis(300),
            device_loss_rate: 0.4,
            degrade_rate: 1.0,
            degrade_scale: 0.25,
            mean_degrade: SimDuration::from_millis(200),
            straggler_rate: 1.5,
            straggler_factor: 3.0,
            mean_straggle: SimDuration::from_millis(150),
            gray_rate: 1.0,
            gray_compute: 4.0,
            gray_nic: 0.5,
            mean_gray: SimDuration::from_millis(400),
            flap_rate: 4.0,
            flap_nic: 0.3,
            mean_flap: SimDuration::from_millis(40),
        };
        let mut d = lina_runner::Fnv128::new();
        let mut counts = [0usize; 9];
        for seed in [7, 0x5EED] {
            let s = FaultSchedule::generate(&rates, 3, SimDuration::from_secs_f64(5.0), seed);
            s.validate(3);
            d.write_u64(s.events().len() as u64);
            for e in s.events() {
                let (tag, a, b) = match e.kind {
                    FaultKind::ReplicaCrash => (0, 0.0, 0.0),
                    FaultKind::ReplicaRecover => (1, 0.0, 0.0),
                    FaultKind::DeviceLoss => (2, 0.0, 0.0),
                    FaultKind::LinkDegrade { scale } => (3, scale, 0.0),
                    FaultKind::LinkRestore => (4, 0.0, 0.0),
                    FaultKind::StragglerStart { factor } => (5, factor, 0.0),
                    FaultKind::StragglerEnd => (6, 0.0, 0.0),
                    FaultKind::GrayDegrade {
                        compute_scale,
                        nic_scale,
                    } => (7, compute_scale, nic_scale),
                    FaultKind::GrayClear => (8, 0.0, 0.0),
                };
                counts[tag] += 1;
                for w in [
                    e.at.as_nanos(),
                    e.replica as u64,
                    tag as u64,
                    a.to_bits(),
                    b.to_bits(),
                ] {
                    d.write_u64(w);
                }
            }
        }
        assert!(
            counts.iter().all(|&c| c > 0),
            "every kind fires: {counts:?}"
        );
        assert_eq!(
            d.finish(),
            0x5d5e_4276_0a39_0bf5_ed5c_ac87_4a39_ab1c,
            "generated schedule digest moved"
        );
    }

    #[test]
    fn generated_gray_schedules_validate_and_are_deterministic() {
        let rates = FaultRateConfig::gray(1.0, 8.0, 0.1, SimDuration::from_millis(300));
        let a = FaultSchedule::generate(&rates, 2, SimDuration::from_secs_f64(4.0), 7);
        let b = FaultSchedule::generate(&rates, 2, SimDuration::from_secs_f64(4.0), 7);
        assert_eq!(a.events(), b.events());
        a.validate(2);
        assert!(
            a.events()
                .iter()
                .all(|e| matches!(e.kind, FaultKind::GrayDegrade { .. } | FaultKind::GrayClear)),
            "gray() rates must emit only gray events"
        );
        assert_eq!(
            a.next_recovery_after(SimTime::ZERO),
            None,
            "gray events never flip the health bit, so there is nothing to recover"
        );
    }

    #[test]
    #[should_panic(expected = "gray compute scale")]
    fn sub_unity_gray_compute_rejected() {
        FaultSchedule::from_script(vec![FaultEvent {
            at: SimTime::ZERO,
            replica: 0,
            kind: FaultKind::GrayDegrade {
                compute_scale: 0.5,
                nic_scale: 1.0,
            },
        }])
        .validate(1);
    }

    /// The precomputed recovery index answers exactly like the linear
    /// scan it replaced, including between, at, and past event times.
    #[test]
    fn recovery_index_matches_linear_scan() {
        let rates = FaultRateConfig::crashes(3.0, SimDuration::from_millis(150));
        let s = FaultSchedule::generate(&rates, 4, SimDuration::from_secs_f64(3.0), 11);
        let probes: Vec<SimTime> = std::iter::once(SimTime::ZERO)
            .chain(s.events().iter().flat_map(|e| {
                [
                    e.at,
                    e.at + SimDuration::from_nanos(1),
                    e.at + SimDuration::from_millis(1),
                ]
            }))
            .collect();
        for t in probes {
            let linear = s
                .events()
                .iter()
                .find(|e| e.at > t && e.kind == FaultKind::ReplicaRecover)
                .map(|e| e.at);
            assert_eq!(s.next_recovery_after(t), linear, "probe at {t}");
        }
    }

    #[test]
    fn backoff_is_capped_exponential() {
        let p = DegradationPolicy::retry_failover(None);
        assert_eq!(p.backoff(1), SimDuration::from_millis(1));
        assert_eq!(p.backoff(2), SimDuration::from_millis(2));
        assert_eq!(p.backoff(3), SimDuration::from_millis(4));
        assert_eq!(p.backoff(4), SimDuration::from_millis(8));
        assert_eq!(p.backoff(10), SimDuration::from_millis(8), "capped");
    }

    /// jitter = 0 must reproduce `backoff` bit for bit (the multiply is
    /// skipped, not rounded through); jitter > 0 spreads identical
    /// (attempt) pairs across requests deterministically and within the
    /// +/- jitter/2 envelope.
    #[test]
    fn retry_jitter_degenerates_to_plain_backoff_and_spreads_requests() {
        let rng = Rng::new(0xDECAF);
        let plain = DegradationPolicy::retry_failover(None);
        for attempt in 1..6 {
            for request in [0usize, 1, 97] {
                assert_eq!(
                    plain.backoff_jittered(attempt, request, &rng),
                    plain.backoff(attempt),
                    "jitter=0 must be the identity"
                );
            }
        }
        let mut jittered = plain;
        jittered.jitter = 0.5;
        jittered.validate();
        let waits: Vec<SimDuration> = (0..64)
            .map(|request| jittered.backoff_jittered(2, request, &rng))
            .collect();
        let base = plain.backoff(2);
        let lo = base.mul_f64(0.75);
        let hi = base.mul_f64(1.25);
        for (request, &w) in waits.iter().enumerate() {
            assert!(
                (lo..=hi).contains(&w),
                "request {request}: {w} outside envelope"
            );
            assert_eq!(
                w,
                jittered.backoff_jittered(2, request, &rng),
                "same (request, attempt) must re-draw the same factor"
            );
        }
        let distinct: std::collections::BTreeSet<SimDuration> = waits.iter().copied().collect();
        assert!(
            distinct.len() > 32,
            "stampede not spread: {} distinct waits of 64",
            distinct.len()
        );
    }

    #[test]
    #[should_panic(expected = "retry jitter")]
    fn out_of_range_jitter_rejected() {
        let mut p = DegradationPolicy::retry_failover(None);
        p.jitter = 1.5;
        p.validate();
    }

    #[test]
    fn inert_plan_has_no_events_and_never_retries() {
        let plan = FaultPlan::none();
        assert!(plan.schedule.is_empty());
        assert!(!plan.policy.retries());
        assert_eq!(plan.policy.request_timeout, None);
        plan.validate(1);
    }

    #[test]
    #[should_panic(expected = "targets replica")]
    fn out_of_range_replica_rejected() {
        FaultSchedule::from_script(vec![FaultEvent {
            at: SimTime::ZERO,
            replica: 3,
            kind: FaultKind::ReplicaCrash,
        }])
        .validate(3);
    }
}
