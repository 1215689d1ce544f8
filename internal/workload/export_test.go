package workload

// TickByTick makes the runners New builds, until restore is called, run
// every sub-burst as an ordinary series, one event per tick: the
// reference a held sweep's settles are checked against, also through
// callers that build their own runner (core.Protect).
func TickByTick() (restore func()) {
	tickByTick = true
	return func() { tickByTick = false }
}

// MessageByMessage makes the runners New builds, until restore is called,
// send every ring message through the message path — a send, a landing
// and a copy end each — instead of counting the link: the reference a
// counted link's settles are checked against, also through callers that
// build their own runner (core.Protect).
func MessageByMessage() (restore func()) {
	messageByMessage = true
	return func() { messageByMessage = false }
}
