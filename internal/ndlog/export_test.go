package ndlog

// DropFrameStack discards the engine's frame stacks, so the next joins
// start from an empty one and have to grow it; FrameStackSize reports the
// value stack's current capacity in slots.
func (e *Engine) DropFrameStack() { e.frames, e.rows = stack[Value]{}, stack[*Row]{} }

func (e *Engine) FrameStackSize() int { return len(e.frames.buf) }

// DefaultJoinStrategy returns the strategy NewEngine gives new engines.
func DefaultJoinStrategy() JoinStrategy { return defaultJoinStrategy }

// SetDefaultJoinStrategy sets the strategy for subsequently constructed
// engines and returns the previous default, so differential tests can run
// whole pipelines — which construct engines many layers down — against the
// scan oracle. Call it only while no pipeline is running.
func SetDefaultJoinStrategy(s JoinStrategy) JoinStrategy {
	prev := defaultJoinStrategy
	defaultJoinStrategy = s
	return prev
}
