package workload

// TickByTick makes the runners New builds, until restore is called, run
// every sub-burst as an ordinary series, one event per tick: the
// reference a held sweep's settles are checked against, also through
// callers that build their own runner (core.Protect).
func TickByTick() (restore func()) {
	tickByTick = true
	return func() { tickByTick = false }
}
