package obs

import (
	"context"
	"testing"
)

// BenchmarkEventRecorder measures the per-operation cost of the wide-event
// ring: one timed operation (Begin/End with no metrics) on the hot path,
// contended ones, and a filtered read over a full ring. scripts/bench.sh
// tracks the emit cost.
func BenchmarkEventRecorder(b *testing.B) {
	ctx := WithOpID(context.Background(), "0000000000001234-0001")
	b.Run("emit", func(b *testing.B) {
		in := &Instruments{Events: NewEventRecorder(DefaultEventCapacity, nil)}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			t := in.Begin(ctx, LayerHTTP, "/")
			t.End("ok", "method", "GET", "status", "200", "bytes", "512")
		}
	})
	b.Run("emit_parallel", func(b *testing.B) {
		in := &Instruments{Events: NewEventRecorder(DefaultEventCapacity, nil)}
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				t := in.Begin(ctx, LayerHTTP, "/")
				t.End("ok", "method", "GET", "status", "200", "bytes", "512")
			}
		})
	})
	b.Run("filter_full_ring", func(b *testing.B) {
		r := NewEventRecorder(DefaultEventCapacity, nil)
		in := &Instruments{Events: r}
		for i := 0; i < DefaultEventCapacity; i++ {
			t := in.Begin(ctx, LayerStore, "save")
			t.End("ok")
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if got := r.Events(EventFilter{Layer: LayerStore}); len(got) != DefaultEventCapacity {
				b.Fatalf("filtered %d events", len(got))
			}
		}
	})
}
