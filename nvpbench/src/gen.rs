//! Seeded workload generation: the campaign configuration and the
//! `nvpd-mixed` job stream are pure functions of the run seed.

use nvp_experiments::{CampaignRequest, ExpConfig};

/// The seed whose campaign is exactly `ExpConfig::default()`; its
/// rendered artifacts are digest-pinned.
pub const DEFAULT_SEED: u64 = 1;

/// A seed kept out of every tuning run, for confirming a claim.
pub const HELDOUT_SEED: u64 = 7_046_029;

/// SHA-256 over the `sha256sum`-style manifest of the `campaign-cold`
/// artifacts at [`DEFAULT_SEED`] (see `child::artifact_digest`).
pub const PINNED_DEFAULT_DIGEST: &str =
    "b97e4e51be4ce2010f21e98c6159700bed57c305042631a3b3303075f0f2424e";

/// Splitmix64 finalizer: a seed mixer with no state and no clock.
#[must_use]
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The full-evaluation configuration for a run seed: the seed is folded
/// into the fault seed, the frame seed and the profile seeds, shifted so
/// that [`DEFAULT_SEED`] gives `ExpConfig::default()` unchanged.
///
/// The first profile seed stays put: it picks the reference trace every
/// sweep (F5–F12) runs on, and moving it changes the simulated work of a
/// campaign by up to threefold, which would make runs of different
/// seeds incomparable. The other profiles vary F1–F3's profile set.
#[must_use]
pub fn campaign_config(seed: u64) -> ExpConfig {
    let base = ExpConfig::default();
    let shift = seed.wrapping_sub(DEFAULT_SEED);
    let mut profile_seeds = base.profile_seeds.clone();
    for s in &mut profile_seeds[1..] {
        *s = s.wrapping_add(shift.wrapping_mul(4));
    }
    ExpConfig {
        fault_seed: base.fault_seed.wrapping_add(shift),
        frame_seed: base.frame_seed.wrapping_add(shift),
        profile_seeds,
        ..base
    }
}

/// The four job classes of the `nvpd-mixed` stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum JobClass {
    /// Fresh-seed quick `f12` plus `f3` on a fresh second profile:
    /// simulates, then writes the journal, the result store and, for
    /// F3's sim-cache misses, shards. (F12's trials bypass the
    /// sim-cache.)
    Simulate,
    /// Fresh-seed quick `f3`: every simulation is a sim-cache hit, but
    /// the result store is still written.
    Dedup,
    /// Exact resubmission of a completed request: replayed from the
    /// result store.
    Replay,
    /// Fresh-seed quick `t1`: no simulation at all, the wire floor.
    Tiny,
}

impl JobClass {
    /// Every class, in reporting order.
    pub const ALL: [JobClass; 4] =
        [JobClass::Simulate, JobClass::Dedup, JobClass::Replay, JobClass::Tiny];

    /// The metric-name stem of the class.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            JobClass::Simulate => "simulate",
            JobClass::Dedup => "dedup",
            JobClass::Replay => "replay",
            JobClass::Tiny => "tiny",
        }
    }

    /// Jobs of this class in every batch of the stream.
    ///
    /// With one server worker, each client's job waits for the other
    /// client's job, so a simulate job is slow or very slow by what it
    /// waited behind. Simulate jobs are 85% of a batch, so that about
    /// 72% of jobs are simulate jobs that waited behind one, and the
    /// latency median and p90 both fall inside that group. With 70%
    /// simulate jobs that group held half the jobs and the median sat
    /// on its edge; with 80% fast jobs the median sat on the edge
    /// between fast jobs that waited and those that did not, and moved
    /// by a quarter between runs.
    #[must_use]
    pub fn per_batch(self) -> usize {
        match self {
            JobClass::Simulate => 17,
            JobClass::Dedup | JobClass::Replay | JobClass::Tiny => 1,
        }
    }
}

/// Jobs per batch of the stream (every batch has the same class mix).
#[must_use]
pub fn batch_len() -> usize {
    JobClass::ALL.iter().map(|c| c.per_batch()).sum()
}

/// One job of the stream.
#[derive(Debug, Clone, PartialEq)]
pub struct Job {
    /// Its class.
    pub class: JobClass,
    /// The request submitted.
    pub request: CampaignRequest,
}

fn quick(id: &str, seed: u64) -> CampaignRequest {
    let mut req = CampaignRequest::only(ExpConfig::quick(), &[id]);
    req.seed = Some(seed);
    req
}

/// A simulate-class request: quick `f12` and `f3`, with `seed` as the
/// fault seed and as the second profile seed. F12 runs on the first
/// profile only, so its work does not depend on `seed`.
fn simulate(seed: u64) -> CampaignRequest {
    let mut config = ExpConfig::quick();
    config.profile_seeds[1] = seed;
    let mut req = CampaignRequest::only(config, &["f12", "f3"]);
    req.seed = Some(seed);
    req
}

/// A fresh fault seed: high bit set, so it never equals a small seed a
/// warm-up or another run's default could use.
fn fresh_seed(run_seed: u64, n: u64) -> u64 {
    mix(mix(run_seed) ^ n) | 1 << 63
}

/// The warm-up requests run during set-up: they fill the memo caches and
/// the sim-cache for `f3`, and are the requests the replay class
/// resubmits.
#[must_use]
pub fn warmup_requests(run_seed: u64) -> Vec<CampaignRequest> {
    let s = mix(run_seed.wrapping_add(0x5eed));
    vec![quick("f3", s), quick("f12", s), quick("t1", s)]
}

/// The job stream: `batches` batches with the per-class mix of
/// [`JobClass::per_batch`], each shuffled by the seed.
#[must_use]
pub fn job_stream(run_seed: u64, batches: usize) -> Vec<Vec<Job>> {
    let replays = warmup_requests(run_seed);
    let mut n = 0u64;
    let mut rng = mix(run_seed ^ 0x6a6f_6273);
    (0..batches)
        .map(|b| {
            let mut batch = Vec::with_capacity(batch_len());
            for class in JobClass::ALL {
                for i in 0..class.per_batch() {
                    n += 1;
                    let seed = fresh_seed(run_seed, n);
                    let request = match class {
                        JobClass::Simulate => simulate(seed),
                        JobClass::Dedup => quick("f3", seed),
                        JobClass::Replay => replays[(b + i) % replays.len()].clone(),
                        JobClass::Tiny => quick("t1", seed),
                    };
                    batch.push(Job { class, request });
                }
            }
            // Fisher-Yates with the splitmix stream.
            for i in (1..batch.len()).rev() {
                rng = mix(rng);
                batch.swap(i, (rng % (i as u64 + 1)) as usize);
            }
            batch
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_seed_gives_the_default_config() {
        assert_eq!(campaign_config(DEFAULT_SEED), ExpConfig::default());
    }

    #[test]
    fn seed_is_folded_into_every_seeded_field() {
        let a = campaign_config(DEFAULT_SEED);
        let b = campaign_config(DEFAULT_SEED + 1);
        assert_ne!(a.fault_seed, b.fault_seed);
        assert_ne!(a.frame_seed, b.frame_seed);
        assert_ne!(a.profile_seeds, b.profile_seeds);
        assert_eq!(a.profile_seeds.len(), b.profile_seeds.len());
        assert_eq!(campaign_config(42), campaign_config(42));
        assert_eq!(a.profile_seeds[0], b.profile_seeds[0], "the sweep reference trace stays");
        // Extreme seeds wrap instead of overflowing.
        assert_eq!(campaign_config(0).profile_seeds[1], u64::MAX - 1);
        let _ = campaign_config(u64::MAX);
    }

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        let a = job_stream(5, 4);
        assert_eq!(a, job_stream(5, 4));
        assert_ne!(a, job_stream(6, 4));
        assert_eq!(warmup_requests(5), warmup_requests(5));
    }

    #[test]
    fn every_batch_has_the_fixed_class_mix_and_fresh_seeds_are_unique() {
        let stream = job_stream(9, 5);
        let mut seeds = std::collections::BTreeSet::new();
        let warm = warmup_requests(9);
        for batch in &stream {
            assert_eq!(batch.len(), batch_len());
            for class in JobClass::ALL {
                assert_eq!(batch.iter().filter(|j| j.class == class).count(), class.per_batch());
            }
            for job in batch {
                if job.class == JobClass::Replay {
                    assert!(warm.contains(&job.request), "replays resubmit a warm-up request");
                } else {
                    assert!(!warm.contains(&job.request));
                    assert!(seeds.insert(job.request.seed), "fresh seeds never repeat");
                }
            }
        }
    }
}
