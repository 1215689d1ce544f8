package des

// Group is one Engine under a shard group's names: every shard and the
// control are that Engine.
// Kept only for the frozen benchmark/ harness; ROADMAP's "Benchmark v2" item deletes it.
type Group struct {
	eng *Engine
	n   int
}

// NewGroup returns a group of n names for one new Engine.
// Kept only for the frozen benchmark/ harness; ROADMAP's "Benchmark v2" item deletes it.
func NewGroup(n int) *Group { return &Group{eng: NewEngine(), n: n} }

// DeclareLookahead does nothing.
// Kept only for the frozen benchmark/ harness; ROADMAP's "Benchmark v2" item deletes it.
func (g *Group) DeclareLookahead(Time) {}

// Shard returns the group's engine, whatever i.
// Kept only for the frozen benchmark/ harness; ROADMAP's "Benchmark v2" item deletes it.
func (g *Group) Shard(int) *Engine { return g.eng }

// Shards reports the n NewGroup was given.
// Kept only for the frozen benchmark/ harness; ROADMAP's "Benchmark v2" item deletes it.
func (g *Group) Shards() int { return g.n }

// Control returns the group's engine.
// Kept only for the frozen benchmark/ harness; ROADMAP's "Benchmark v2" item deletes it.
func (g *Group) Control() *Engine { return g.eng }

// CriticalPathEvents reports Fired(): on one engine every event is on it.
// Kept only for the frozen benchmark/ harness; ROADMAP's "Benchmark v2" item deletes it.
func (g *Group) CriticalPathEvents() uint64 { return g.eng.Fired() }

// PostTo is dst.Schedule(at, fn).
// Kept only for the frozen benchmark/ harness; ROADMAP's "Benchmark v2" item deletes it.
func (e *Engine) PostTo(dst *Engine, at Time, fn func()) { dst.Schedule(at, fn) }
