package ndlog

// DropFrameStack discards the engine's frame stacks, so the next joins
// start from an empty one and have to grow it; FrameStackSize reports the
// value stack's current capacity in slots.
func (e *Engine) DropFrameStack() { e.frames, e.rows = stack[Value]{}, stack[*Row]{} }

func (e *Engine) FrameStackSize() int { return len(e.frames.buf) }
