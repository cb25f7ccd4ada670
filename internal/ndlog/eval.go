package ndlog

import "fmt"

// Env binds rule variables to values by name. Inside the engine a firing's
// bindings live in a slot frame (compile.go); an Env is the exported form,
// materialised once per derivation for Listener.OnDerive, and the input of
// Eval for callers that re-evaluate expressions outside the engine.
type Env map[string]Value

// Clone copies the environment.
func (e Env) Clone() Env {
	c := make(Env, len(e))
	for k, v := range e {
		c[k] = v
	}
	return c
}

// Func is an engine-registered function callable from expressions.
type Func func(e *Engine, args []Value) (Value, error)

// Eval evaluates an expression under the environment using the engine's
// function registry. Aggregates are rejected here; they are evaluated by the
// engine's aggregation path. It is the map-based walker for callers outside
// the engine (the repair generator's deferred terms); rule evaluation runs
// the slot-compiled form of the same semantics.
func (e *Engine) Eval(env Env, x Expr) (Value, error) {
	switch x := x.(type) {
	case *ConstExpr:
		return x.Val, nil
	case *Var:
		v, ok := env[x.Name]
		if !ok {
			return Value{}, fmt.Errorf("ndlog: unbound variable %s", x.Name)
		}
		return v, nil
	case *Binary:
		l, err := e.Eval(env, x.L)
		if err != nil {
			return Value{}, err
		}
		r, err := e.Eval(env, x.R)
		if err != nil {
			return Value{}, err
		}
		return applyOp(x.Op, l, r)
	case *Call:
		fn, ok := e.Funcs[x.Fn]
		if !ok {
			return Value{}, fmt.Errorf("ndlog: unknown function %s", x.Fn)
		}
		args := make([]Value, len(x.Args))
		for i, a := range x.Args {
			v, err := e.Eval(env, a)
			if err != nil {
				return Value{}, err
			}
			args[i] = v
		}
		return fn(e, args)
	case *Agg:
		return Value{}, fmt.Errorf("ndlog: aggregate %s outside rule head", x.String())
	}
	return Value{}, fmt.Errorf("ndlog: unknown expression %T", x)
}

// applyOp applies a binary operator to two values.
func applyOp(op BinOp, l, r Value) (Value, error) {
	switch op {
	case OpEq:
		return Bool(l.Equal(r)), nil
	case OpNe:
		return Bool(!l.Equal(r)), nil
	case OpLt, OpGt, OpLe, OpGe:
		c := l.Compare(r)
		switch op {
		case OpLt:
			return Bool(c < 0), nil
		case OpGt:
			return Bool(c > 0), nil
		case OpLe:
			return Bool(c <= 0), nil
		default:
			return Bool(c >= 0), nil
		}
	case OpAnd:
		return Bool(l.IsTrue() && r.IsTrue()), nil
	case OpOr:
		return Bool(l.IsTrue() || r.IsTrue()), nil
	case OpAdd, OpSub, OpMul, OpDiv:
		if l.Kind == KindString && op == OpAdd {
			if r.Kind != KindString {
				return Value{}, fmt.Errorf("ndlog: cannot add %s to string", r)
			}
			return Str(l.Str + r.Str), nil
		}
		ln, ok1 := normNum(l)
		rn, ok2 := normNum(r)
		if !ok1 || !ok2 {
			return Value{}, fmt.Errorf("ndlog: arithmetic on non-numeric values %s, %s", l, r)
		}
		switch op {
		case OpAdd:
			return Int(ln.Int + rn.Int), nil
		case OpSub:
			return Int(ln.Int - rn.Int), nil
		case OpMul:
			return Int(ln.Int * rn.Int), nil
		default:
			if rn.Int == 0 {
				return Value{}, fmt.Errorf("ndlog: division by zero")
			}
			return Int(ln.Int / rn.Int), nil
		}
	}
	return Value{}, fmt.Errorf("ndlog: unknown operator %v", op)
}

// EvalOp exposes operator application for packages that re-execute
// derivations (symbolic propagation in the repair generator).
func EvalOp(op BinOp, l, r Value) (Value, error) { return applyOp(op, l, r) }
