//! A campaign simulates exactly what its experiments plan. For every
//! registered experiment, a quick job over a fresh simulation cache
//! makes one sim-cache lookup per planned simulation: a hit or a miss
//! each, and nothing more. The counters see every lookup the job makes,
//! from planning through rendering, so the equality also shows that
//! neither a plan nor a render reaches the simulator.
//!
//! The sim-cache and its counters are process-global, so this check is
//! one sequenced test with a binary of its own.

use nvp::experiments::{registry, reset_sim_cache, run_request, CampaignRequest, ExpConfig};

#[test]
fn every_job_looks_up_exactly_its_planned_simulations() {
    let cfg = ExpConfig::quick();
    let mut planned_total = 0;
    for exp in registry() {
        reset_sim_cache();
        let planned = exp.plan(&cfg).simulations();
        let result = run_request(&CampaignRequest::only(cfg.clone(), &[exp.id()])).unwrap();
        let lookups = result.cache.hits + result.cache.misses;
        assert_eq!(lookups, planned as u64, "{}: lookups vs planned simulations", exp.id());
        assert_eq!(result.exec.lane_groups, planned as u64, "{}: one lane group each", exp.id());
        planned_total += planned;
    }
    assert!(planned_total > 0, "the registry plans simulations");
}
