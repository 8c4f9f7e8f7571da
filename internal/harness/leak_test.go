package harness

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"lazydet/internal/dvm"
)

// runNoLeak runs w under opt and fails the test if any goroutine Run started
// is still alive a second after Run returned, whether the run succeeded or
// failed. The count is process-wide, so no test in this package may call
// t.Parallel.
func runNoLeak(t *testing.T, what string, w *Workload, opt Options) (*Result, error) {
	t.Helper()
	before := runtime.NumGoroutine()
	res, err := Run(w, opt)
	// A thread's goroutine signals completion before it has returned, so
	// give stragglers up to a second to finish exiting.
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			buf = buf[:runtime.Stack(buf, true)]
			t.Errorf("%s: %d goroutine(s) still running 1 s after Run returned (%d before):\n%s",
				what, runtime.NumGoroutine()-before, before, buf)
			break
		}
		time.Sleep(time.Millisecond)
	}
	return res, err
}

// TestRunLeavesNoGoroutines: a clean run under every engine, with tracing,
// telemetry spans, blocked-time accounting and the invariant audit on, a run
// whose workload Validate fails, and one whose program fails Program.Validate
// each leave no goroutine behind. The rejected-option paths are covered by
// TestRunRejectsBadOptions.
func TestRunLeavesNoGoroutines(t *testing.T) {
	for _, eng := range AllEngines {
		opt := Options{Engine: eng, Threads: 4, Trace: true, TelemetrySpans: true,
			MeasureTimes: true, CollectSpec: true, CheckInvariants: true}
		if _, err := runNoLeak(t, eng.String(), counterWorkload(50), opt); err != nil {
			t.Errorf("%s: %v", eng, err)
		}
	}

	errWrong := errors.New("final memory is wrong")
	w := counterWorkload(50)
	w.Validate = func(func(int64) int64, int) error { return errWrong }
	if _, err := runNoLeak(t, "failed Validate", w, Options{Engine: LazyDet, Threads: 4}); !errors.Is(err, errWrong) {
		t.Errorf("failed Validate: error %v, want %v", err, errWrong)
	}

	noHalt := counterWorkload(1)
	noHalt.Programs = func(threads int) []*dvm.Program {
		progs := make([]*dvm.Program, threads)
		for i := range progs {
			progs[i] = &dvm.Program{Name: "no-halt", Code: []dvm.Instr{{Op: dvm.OpDo, Cost: 1, Do: func(*dvm.Thread) {}}}}
		}
		return progs
	}
	if _, err := runNoLeak(t, "failed Program.Validate", noHalt, Options{Engine: LazyDet, Threads: 4}); err == nil ||
		!strings.Contains(err.Error(), "without OpHalt") {
		t.Errorf("failed Program.Validate: error %v, want one naming the missing OpHalt", err)
	}
}
