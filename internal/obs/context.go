package obs

import "context"

// tracerKey is the context key carrying the active *Tracer.
type tracerKey struct{}

// WithTracer returns a context carrying the tracer. Every pipeline
// layer retrieves it with FromContext; a context without a tracer
// yields nil, and all tracer methods no-op on nil, so instrumented code
// needs no conditionals.
func WithTracer(ctx context.Context, t *Tracer) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, tracerKey{}, t)
}

// FromContext returns the context's tracer, or nil if none is attached.
func FromContext(ctx context.Context) *Tracer {
	t, _ := ctx.Value(tracerKey{}).(*Tracer)
	return t
}
