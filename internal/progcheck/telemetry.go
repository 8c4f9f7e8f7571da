package progcheck

import "lazydet/internal/telemetry"

// Publish records the analysis outcome into the telemetry registry under the
// progcheck.* namespace: programs/instructions/states analyzed, unknown sync
// operations (the precision loss), findings by class, speculation-hint
// verdict counts, and the analysis wall time. The counters are deterministic
// except the *_ns ones, which the report builder routes into the never-gated
// Timing section.
func (r *Report) Publish(tel *telemetry.Recorder) {
	if !tel.Enabled() {
		return
	}
	tel.Count("progcheck.programs", int64(r.Stats.Programs))
	tel.Count("progcheck.instructions", int64(r.Stats.Instructions))
	tel.Count("progcheck.states", int64(r.Stats.States))
	tel.Count("progcheck.unknown_sync_ops", int64(r.Stats.UnknownSyncOps))
	tel.Count("progcheck.findings.total", int64(len(r.Findings)))
	for _, f := range r.Findings {
		tel.Count("progcheck.findings."+string(f.Class), 1)
	}
	r.Hints.Publish(tel)
	tel.Count("progcheck.analysis_ns", r.Stats.AnalysisNs)
	tel.Count("progcheck.lockstate_ns", r.Stats.LockstateNs)
	tel.Count("progcheck.deadlock_ns", r.Stats.DeadlockNs)
	tel.Count("progcheck.race_ns", r.Stats.RaceNs)
	tel.Count("progcheck.footprint_ns", r.Stats.FootprintNs)
}

// Publish records the footprint verdict counts under progcheck.hints.*.
// Deterministic (pure functions of the program set), so gateable.
func (h *SpecHints) Publish(tel *telemetry.Recorder) {
	if h == nil || !tel.Enabled() {
		return
	}
	tel.Count("progcheck.hints.locks", int64(len(h.Verdicts)))
	tel.Count("progcheck.hints.disjoint", int64(h.Count(VerdictDisjoint)))
	tel.Count("progcheck.hints.conflicting", int64(h.Count(VerdictConflicting)))
	tel.Count("progcheck.hints.unknown", int64(h.Count(VerdictUnknown)))
}
