package telemetry

import (
	"context"
	"strings"
	"testing"
	"time"
)

func TestSpanStagesAccumulate(t *testing.T) {
	sp := StartSpan("predict")
	for i := 0; i < 3; i++ { // repeated stages accumulate, like chunked predicts
		stop := sp.Stage("embed")
		time.Sleep(time.Millisecond)
		stop()
		stop = sp.Stage("lstm")
		time.Sleep(2 * time.Millisecond)
		stop()
	}
	total := sp.End()

	stages := sp.Stages()
	if len(stages) != 2 || stages[0].Name != "embed" || stages[1].Name != "lstm" {
		t.Fatalf("stages = %+v, want embed,lstm in entry order", stages)
	}
	// time.Sleep guarantees at least the requested wait, so after three
	// entries each stage holds at least three of its sleeps: bounds that
	// only accumulation meets, and that no scheduling delay can break.
	if d := sp.Dur("embed"); d < 3*time.Millisecond {
		t.Errorf("embed = %v after three 1 ms entries, want >= 3ms", d)
	}
	if d := sp.Dur("lstm"); d < 6*time.Millisecond {
		t.Errorf("lstm = %v after three 2 ms entries, want >= 6ms", d)
	}
	var sum time.Duration
	for _, st := range stages {
		sum += st.Dur
	}
	if sum > total {
		t.Fatalf("serial stage durations (%v) exceed span total (%v)", sum, total)
	}
	if sp.Total() != total {
		t.Fatal("Total must be fixed after End")
	}
}

func TestSpanStringAndName(t *testing.T) {
	sp := StartSpan("estimate")
	sp.Stage("encode")()
	sp.End()
	if sp.Name() != "estimate" {
		t.Fatalf("name = %q", sp.Name())
	}
	s := sp.String()
	if !strings.Contains(s, "estimate") || !strings.Contains(s, "encode=") || !strings.Contains(s, "total=") {
		t.Fatalf("String() = %q", s)
	}
}

func TestSpanNilSafety(t *testing.T) {
	var sp *Span
	sp.Stage("x")()
	if sp.End() != 0 || sp.Total() != 0 || sp.Dur("x") != 0 || sp.Stages() != nil || sp.Name() != "" {
		t.Fatal("nil span must be inert")
	}
	if sp.String() != "<nil span>" {
		t.Fatalf("nil String() = %q", sp.String())
	}
}

func TestSpanOpenTotalRuns(t *testing.T) {
	sp := StartSpan("open")
	a := sp.Total()
	time.Sleep(time.Millisecond)
	b := sp.Total()
	if b <= a {
		t.Fatal("open span Total must advance")
	}
}

func TestSpanRidesContext(t *testing.T) {
	if sp := SpanFrom(context.Background()); sp != nil {
		t.Fatalf("bare context carries span %v, want nil", sp)
	}
	sp := StartSpan("estimate")
	ctx := WithSpan(context.Background(), sp)
	if got := SpanFrom(ctx); got != sp {
		t.Fatalf("SpanFrom = %p, want the span put on the context (%p)", got, sp)
	}
	// A derived context keeps the span; a nil span reads back as nil.
	child, cancel := context.WithCancel(ctx)
	defer cancel()
	if SpanFrom(child) != sp {
		t.Fatal("derived context lost the span")
	}
	if SpanFrom(WithSpan(ctx, nil)) != nil {
		t.Fatal("WithSpan(ctx, nil) must read back as no span")
	}
}
