//! Canonical metric names shared across crates.
//!
//! The [`Tracer`](crate::Tracer) API is stringly keyed; producers and
//! consumers that live in different crates (the batch engine emits, the CLI
//! reads) must agree on the exact spelling. Centralizing the names here turns a typo into a
//! compile error instead of a silently empty metric.

/// GREEDY removal phase wall time.
pub const GREEDY_REMOVAL: &str = "greedy.removal";
/// GREEDY reinsertion phase wall time.
pub const GREEDY_REINSERT: &str = "greedy.reinsert";
/// Jobs reinserted by GREEDY.
pub const GREEDY_JOBS_REINSERTED: &str = "greedy.jobs_reinserted";
/// Jobs that ended up on a different processor after GREEDY.
pub const GREEDY_MOVES: &str = "greedy.moves";
/// Size of each job GREEDY moved (histogram).
pub const GREEDY_MOVE_SIZE: &str = "greedy.move_size";
/// Jobs removed by GREEDY's removal phase.
pub const GREEDY_JOBS_REMOVED: &str = "greedy.jobs_removed";

/// PARTITION step 1 (strip) wall time.
pub const PARTITION_STEP1_STRIP: &str = "partition.step1_strip";
/// PARTITION step 2 (rank) wall time.
pub const PARTITION_STEP2_RANK: &str = "partition.step2_rank";
/// PARTITION step 3 (shed selected) wall time.
pub const PARTITION_STEP3_SHED_SELECTED: &str = "partition.step3_shed_selected";
/// PARTITION step 4 (shed unselected) wall time.
pub const PARTITION_STEP4_SHED_UNSELECTED: &str = "partition.step4_shed_unselected";
/// Large jobs removed by PARTITION.
pub const PARTITION_LARGE_REMOVED: &str = "partition.large_removed";
/// Small jobs removed by PARTITION.
pub const PARTITION_SMALL_REMOVED: &str = "partition.small_removed";
/// PARTITION step 5 (place large) wall time.
pub const PARTITION_STEP5_PLACE_LARGE: &str = "partition.step5_place_large";
/// PARTITION step 6 (reinsert) wall time.
pub const PARTITION_STEP6_REINSERT: &str = "partition.step6_reinsert";

/// M-PARTITION threshold search wall time.
pub const MPARTITION_SEARCH: &str = "mpartition.search";
/// Candidate thresholds in the M-PARTITION ladder.
pub const MPARTITION_CANDIDATES_TOTAL: &str = "mpartition.candidates_total";
/// Candidate thresholds actually examined by the binary search.
pub const MPARTITION_CANDIDATES_EXAMINED: &str = "mpartition.candidates_examined";
/// Candidate thresholds skipped by the binary search.
pub const MPARTITION_CANDIDATES_SKIPPED: &str = "mpartition.candidates_skipped";
/// Per-threshold PARTITION invocation wall time under M-PARTITION.
pub const MPARTITION_PARTITION: &str = "mpartition.partition";
/// Profile rebuild wall time under M-PARTITION: the per-processor sorts
/// the threshold ladder is read from.
pub const MPARTITION_LADDER_BUILD: &str = "mpartition.ladder_build";

/// Cost-PARTITION threshold search wall time.
pub const COST_PARTITION_SEARCH: &str = "cost_partition.search";
/// Threshold guesses tried by cost-PARTITION.
pub const COST_PARTITION_GUESSES: &str = "cost_partition.guesses";
/// Cost-PARTITION knapsack build wall time.
pub const COST_PARTITION_BUILD: &str = "cost_partition.build";

/// Knapsack branch-and-bound wall time.
pub const KNAPSACK_BB: &str = "knapsack.branch_and_bound";
/// Branch-and-bound nodes explored.
pub const KNAPSACK_BB_NODES: &str = "knapsack.bb_nodes";
/// Branch-and-bound searches that exhausted their node budget and fell
/// back to the best kept set found so far.
pub const KNAPSACK_BB_FALLBACKS: &str = "knapsack.bb_fallbacks";
/// Knapsack FPTAS dynamic program wall time.
pub const KNAPSACK_FPTAS_DP: &str = "knapsack.fptas_dp";
/// FPTAS DP cells filled.
pub const KNAPSACK_DP_CELLS: &str = "knapsack.dp_cells";

/// PTAS threshold guesses tried.
pub const PTAS_GUESSES: &str = "ptas.guesses";
/// PTAS grid construction wall time.
pub const PTAS_GRID: &str = "ptas.grid";
/// PTAS dynamic program wall time.
pub const PTAS_DP: &str = "ptas.dp";
/// PTAS DP states expanded.
pub const PTAS_DP_STATES: &str = "ptas.dp_states";
/// PTAS assembly phase wall time.
pub const PTAS_ASSEMBLE: &str = "ptas.assemble";

/// Simulated epochs executed.
pub const SIM_EPOCHS: &str = "sim.epochs";
/// Epochs whose policy moved at least one job.
pub const SIM_REBALANCED: &str = "sim.rebalanced";
/// Epochs whose policy moved nothing.
pub const SIM_UNCHANGED: &str = "sim.unchanged";
/// Per-epoch wall time in nanoseconds (histogram); an online farm records
/// the engine's solve time of its epoch item.
pub const SIM_EPOCH_NANOS: &str = "sim.epoch_nanos";
/// Per-epoch span.
pub const SIM_EPOCH: &str = "sim.epoch";
/// Epochs that ran in degraded (fault-affected) mode.
pub const SIM_DEGRADED_EPOCHS: &str = "sim.degraded_epochs";
/// Migrations forced by crash evacuations.
pub const SIM_FORCED_MIGRATIONS: &str = "sim.forced_migrations";
/// Policy answers rejected as invalid against the true instance.
pub const SIM_POLICY_REJECTIONS: &str = "sim.policy_rejections";
/// Fallback-chain invocations.
pub const SIM_FALLBACKS: &str = "sim.fallbacks";
/// Whole simulation run span (tracing).
pub const SIM_RUN: &str = "sim.run";

/// Instant event: a processor crashed this epoch (tracing).
pub const FAULT_CRASH: &str = "fault.crash";
/// Instant event: a processor recovered this epoch (tracing).
pub const FAULT_RECOVERY: &str = "fault.recovery";
/// Instant event: a site was evacuated off a crashed processor (tracing).
pub const FAULT_EVACUATION: &str = "fault.evacuation";

/// Items solved by the batch engine.
pub const ENGINE_ITEMS: &str = "engine.items";
/// Worker threads the engine actually spawned.
pub const ENGINE_WORKERS: &str = "engine.workers";
/// Successful steals: items claimed from another worker's stripe.
pub const ENGINE_STEALS: &str = "engine.steals";
/// Remaining items in the victim stripe at each steal (histogram).
pub const ENGINE_QUEUE_DEPTH: &str = "engine.queue_depth";
/// Per-item solve wall time in nanoseconds (histogram).
pub const ENGINE_SOLVE_NANOS: &str = "engine.solve_nanos";
/// Whole-batch span (payload: item count).
pub const ENGINE_BATCH: &str = "engine.batch";
/// Per-worker engine loop span (tracing; scheduling lane).
pub const ENGINE_WORKER: &str = "engine.worker";
/// Span around a worker claiming an item from its own stripe (scheduling lane).
pub const ENGINE_CLAIM: &str = "engine.claim";
/// Span around a worker hunting other stripes for work (scheduling lane).
pub const ENGINE_QUEUE_WAIT: &str = "engine.queue_wait";
/// Instant event marking a successful steal (scheduling lane).
pub const ENGINE_STEAL_EVENT: &str = "engine.steal";
/// Span around one item's solve in the engine worker loop.
pub const ENGINE_SOLVE: &str = "engine.solve";

/// Online events applied (arrivals + departures + rebalances).
pub const ONLINE_EVENTS: &str = "online.events";
/// Online arrival events applied.
pub const ONLINE_ARRIVALS: &str = "online.arrivals";
/// Online departure events applied.
pub const ONLINE_DEPARTURES: &str = "online.departures";
/// Online rebalance events applied.
pub const ONLINE_REBALANCES: &str = "online.rebalances";
/// Jobs migrated by online rebalances and evacuations.
pub const ONLINE_MOVES: &str = "online.moves";
/// Banked-budget balance after each rebalance event (histogram).
pub const ONLINE_BANKED: &str = "online.banked_balance";
/// Per-event apply wall time in nanoseconds (histogram).
pub const ONLINE_EVENT_NANOS: &str = "online.event_nanos";

/// Events admitted, logged, and applied by the serve daemon.
pub const SERVE_EVENTS: &str = "serve.events";
/// Admission rejections issued by the serve daemon.
pub const SERVE_REJECTS: &str = "serve.rejects";
/// WAL batches appended and flushed.
pub const SERVE_WAL_APPENDS: &str = "serve.wal_appends";
/// Snapshots written by the serve daemon.
pub const SERVE_SNAPSHOTS: &str = "serve.snapshots";
/// Crash recoveries performed at daemon startup.
pub const SERVE_RECOVERIES: &str = "serve.recoveries";
/// Events replayed from the WAL during recovery.
pub const SERVE_REPLAYED: &str = "serve.replayed";
/// Batch epochs executed by the serve state thread.
pub const SERVE_EPOCHS: &str = "serve.epochs";
/// Malformed, truncated, or oversized frames received.
pub const SERVE_FRAME_ERRORS: &str = "serve.frame_errors";
/// Client connections accepted.
pub const SERVE_CONNECTIONS: &str = "serve.connections";
/// Rebalances that degraded below their first solver tier.
pub const SERVE_DEGRADED: &str = "serve.degraded";
/// State-thread batch phase: admit + apply + log + reply.
pub const SERVE_BATCH: &str = "serve.batch";

/// Speed-scaled GREEDY run: removal plus reinsertion.
pub const HETERO_GREEDY: &str = "hetero.greedy";
/// Speed-scaled M-PARTITION run: threshold scan plus planning.
pub const HETERO_MPARTITION: &str = "hetero.mpartition";
/// Cross-processor moves performed by the speed-scaled solvers.
pub const HETERO_MOVES: &str = "hetero.moves";
/// Rational thresholds probed by the speed-scaled M-PARTITION scan.
pub const HETERO_PROBES: &str = "hetero.probes";

/// Policy × adversary cells evaluated by the compete lab.
pub const COMPETE_CELLS: &str = "compete.cells";
/// Epochs driven across all compete cells.
pub const COMPETE_EPOCHS: &str = "compete.epochs";
/// Exact incremental-oracle solves performed by the compete lab.
pub const COMPETE_ORACLE_SOLVES: &str = "compete.oracle_solves";
/// Realized competitive ratio ×1000 per epoch (histogram).
pub const COMPETE_RATIO: &str = "compete.ratio_x1000";
/// Jobs migrated across all compete cells.
pub const COMPETE_MOVES: &str = "compete.moves";

/// Whole semantic-lint analyzer run (parse + graph + passes).
pub const LINT_RUN: &str = "lint.run";
/// Lint lexing + item parsing, one span per file (payload: file index).
pub const LINT_PARSE: &str = "lint.parse";
/// Call-graph construction and name resolution.
pub const LINT_GRAPH: &str = "lint.graph";
/// One reachability/taint pass (payload: pass index).
pub const LINT_PASS: &str = "lint.pass";
/// Files analyzed by the linter.
pub const LINT_FILES: &str = "lint.files";
/// Function items parsed by the linter.
pub const LINT_FUNCTIONS: &str = "lint.functions";
/// Call-graph edges resolved by the linter.
pub const LINT_EDGES: &str = "lint.edges";
/// Findings surviving suppression.
pub const LINT_FINDINGS: &str = "lint.findings";
