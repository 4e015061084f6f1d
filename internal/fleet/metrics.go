package fleet

import "mpppb/internal/obs"

// Fleet metrics: updated at lease granularity (a lease covers a whole
// simulated cell), never on a simulation hot path. Coordinator-side
// counters carry the mpppb_fleet_ prefix; worker-side counters carry
// mpppb_fleet_worker_.
var (
	mLeasesGranted = obs.Default().Counter("mpppb_fleet_leases_granted_total",
		"cell leases handed to workers (includes re-grants of reassigned cells)")
	mLeasesRenewed = obs.Default().Counter("mpppb_fleet_leases_renewed_total",
		"heartbeat renewals accepted for live leases")
	mLeasesExpired = obs.Default().Counter("mpppb_fleet_leases_expired_total",
		"leases that missed their heartbeat deadline (dead or hung worker)")
	mCellsReassigned = obs.Default().Counter("mpppb_fleet_cells_reassigned_total",
		"cells returned to the pending pool for a fresh worker after a lease expiry")
	mCompletions = obs.Default().Counter("mpppb_fleet_completions_total",
		"worker results accepted and merged into the journal")
	mDuplicateCompletions = obs.Default().Counter("mpppb_fleet_duplicate_completions_total",
		"completions for already-terminal cells, dropped idempotently (results are deterministic)")
	mStaleCompletions = obs.Default().Counter("mpppb_fleet_stale_lease_completions_total",
		"completions accepted from a lease that had already expired (deterministic results make this safe)")
	mRefusedResults = obs.Default().Counter("mpppb_fleet_refused_results_total",
		"completion payloads refused: malformed value, unknown cell, or fingerprint mismatch")
	mCellFailures = obs.Default().Counter("mpppb_fleet_failures_total",
		"cells reported permanently failed by a worker")
	mWorkersLive = obs.Default().Gauge("mpppb_fleet_workers_live",
		"distinct workers heard from within the liveness window")

	mWorkerLeases = obs.Default().Counter("mpppb_fleet_worker_leases_total",
		"leases this worker was granted")
	mWorkerCompleted = obs.Default().Counter("mpppb_fleet_worker_completed_total",
		"cells this worker computed and uploaded")
	mWorkerFailed = obs.Default().Counter("mpppb_fleet_worker_failed_total",
		"cells this worker reported failed")
	mWorkerRenewals = obs.Default().Counter("mpppb_fleet_worker_renewals_total",
		"lease heartbeats this worker sent")
	mWorkerLeaseLost = obs.Default().Counter("mpppb_fleet_worker_lease_lost_total",
		"leases the coordinator declared gone while this worker still held them")
	mWorkerPolls = obs.Default().Counter("mpppb_fleet_worker_polls_total",
		"lease requests answered with no work available (backoff waits)")
)
