package harness

// CounterWorkload exposes the contended-counter shape (harness_test.go) to
// the external test package, which can import internal/workloads beside it.
var CounterWorkload = counterWorkload
