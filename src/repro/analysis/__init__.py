"""Survivability analysis: Equation 1, Monte Carlo validation, cost model.

This package reproduces the paper's quantitative evaluation:

* :mod:`~repro.analysis.exact` — the reconstructed closed form of
  **Equation 1**: ``P[Success](N, f) = F(N, f) / C(2N+2, f)`` for a node
  pair in an N-node dual-backplane cluster with exactly ``f`` failed
  components.  Validated exhaustively (see :mod:`~repro.analysis.exhaustive`)
  and against the paper's 0.99 crossovers (N=18/32/45 for f=2/3/4).
* :mod:`~repro.analysis.exhaustive` — brute-force enumeration over all
  ``C(2N+2, f)`` failure sets, with ablation switches (no two-hop routing,
  single backplane) for the design-choice ablations.
* :mod:`~repro.analysis.montecarlo` — the vectorized Monte Carlo estimator
  (the paper's "DRS Simulation" used to validate the model, Figure 3).
* :mod:`~repro.analysis.variance` — variance-reduced estimators: hub-state
  stratification with closed-form stratum weights and the endpoint-dead
  control variate (derivation in ``docs/model.md`` §11).
* :mod:`~repro.analysis.convergence` — mean-absolute-deviation-vs-iterations
  study over ``f < N < 64`` (Figure 3 proper).
* :mod:`~repro.analysis.cost` — the proactive-cost model of Figure 1:
  probe-sweep response time vs cluster size under a bandwidth budget.
"""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "combinatorics": ["comb0", "covering_nic_failures"],
        "exact": [
            "bad_combinations",
            "good_combinations",
            "total_combinations",
            "success_probability",
            "success_curve",
            "crossover_n",
            "expected_dark_pairs",
        ],
        "exhaustive": ["enumerate_success_probability", "pair_connected"],
        "montecarlo": [
            "simulate_grid",
            "simulate_full_grid",
            "DEFAULT_MAX_ADAPTIVE_TRIALS",
            "sample_failure_matrix",
            "failure_rank_matrix",
            "failure_matrix_at",
            "connectivity_levels",
        ],
        "variance": [
            "site_stratum_weights",
            "hub_stratum_weights",
            "one_hub_conditional_success",
            "endpoint_dead_conditional_mean",
            "allocate_stratum_trials",
            "sample_conditional_failure_matrix",
            "stratified_success_probability",
        ],
        "convergence": [
            "mean_absolute_deviation_grid",
        ],
        "cost": [
            "sweep_time_s",
            "max_nodes_within",
            "response_time_curve",
            "frame_size_sensitivity",
        ],
        "allpairs": [
            "allpairs_good_combinations",
            "allpairs_success_probability",
            "allpairs_success_curve",
        ],
        "weighted": [
            "weighted_failure_matrix",
            "simulate_weighted_success",
            "hub_nic_weight_ratio",
        ],
        "topokernel": [
            "topology_connected_vec",
            "topology_connectivity_levels",
            "topology_keys",
            "sample_topology_failures",
            "simulate_topology_grid",
            "enumerate_topology_success",
            "exact_topology_success",
            "require_baseline_connectivity",
        ],
        "availability": [
            "component_unavailability",
            "iid_success_probability",
            "iid_allpairs_success_probability",
            "pair_availability",
            "AvailabilityReport",
        ],
        "stats": ["wilson_interval", "normal_ppf", "ProportionEstimate"],
    },
)
