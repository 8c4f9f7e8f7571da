// Engine-phase pprof labels: when profiling is on, CPU samples taken inside
// the synchronization machinery are tagged with the phase they fell in —
//
//	engine_phase=grant      arbiter election and turn waiting
//	engine_phase=commit     publication: the commits of synchronization points
//	engine_phase=validate   speculation conflict validation
//
// so a -cpuprofile from lazydet-run/-bench/-sim can attribute sync-machinery
// time to the publication path (`go tool pprof -tagfocus
// engine_phase=commit`). Labeling costs two goroutine-label stores per
// labeled region, so it is off unless a front end that is actually writing
// a profile calls StartCPUProfile; disabled, each site is one atomic load
// and a no-op call.
package core

import (
	"context"
	"os"
	"runtime/pprof"
	"sync/atomic"
)

var profilePhases atomic.Bool

// StartCPUProfile turns on engine-phase labels process-wide and starts a CPU
// profile into path. The returned stop flushes the profile and closes the
// file; until it runs the file may be empty, so a front end must reach it on
// every exit path — os.Exit skips deferred calls, which is why the mains
// return their exit code from a run function that defers stop. Labels stay
// on after stop (profiles are one-shot per process).
func StartCPUProfile(path string) (stop func() error, err error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	profilePhases.Store(true)
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

var noPhase = func() {}

// phaseBegin tags the calling goroutine's CPU samples with the named engine
// phase until the returned func runs. Typical use: defer phaseBegin("x")().
func phaseBegin(name string) func() {
	if !profilePhases.Load() {
		return noPhase
	}
	pprof.SetGoroutineLabels(pprof.WithLabels(context.Background(), pprof.Labels("engine_phase", name)))
	return clearPhase
}

func clearPhase() { pprof.SetGoroutineLabels(context.Background()) }
