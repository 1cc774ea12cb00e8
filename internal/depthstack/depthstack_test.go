package depthstack

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestStackPushPop(t *testing.T) {
	var s Stack
	if s.Len() != 0 {
		t.Fatal("zero value not empty")
	}
	if _, ok := s.Top(); ok {
		t.Fatal("Top on empty returned ok")
	}
	s.Push(3, 1)
	s.Push(5, 2)
	if s.Len() != 2 {
		t.Fatalf("Len = %d", s.Len())
	}
	f, ok := s.Top()
	if !ok || f.State != 5 || f.Depth != 2 {
		t.Fatalf("Top = %+v, %v", f, ok)
	}
	f = s.Pop()
	if f.State != 5 || f.Depth != 2 {
		t.Fatalf("Pop = %+v", f)
	}
	f = s.Pop()
	if f.State != 3 || f.Depth != 1 || s.Len() != 0 {
		t.Fatalf("Pop = %+v len=%d", f, s.Len())
	}
}

func TestStackInlineThenSpill(t *testing.T) {
	var s Stack
	for i := 0; i < InlineFrames; i++ {
		s.Push(i, i)
	}
	s.Push(999, 999)
	// LIFO order preserved across the spill boundary.
	if f := s.Pop(); f.State != 999 {
		t.Fatalf("top after spill = %+v", f)
	}
	for i := InlineFrames - 1; i >= 0; i-- {
		if f := s.Pop(); f.State != i {
			t.Fatalf("frame %d = %+v", i, f)
		}
	}
}

func TestStackReset(t *testing.T) {
	var s Stack
	for i := 0; i < 200; i++ {
		s.Push(i, i)
	}
	s.Reset()
	if s.Len() != 0 {
		t.Fatal("Reset did not clear state")
	}
	s.Push(1, 1)
	if f, _ := s.Top(); f.State != 1 {
		t.Fatal("push after reset broken")
	}
}

func TestStackMatchesSliceModel(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	var s Stack
	var model []Frame
	for op := 0; op < 5000; op++ {
		if len(model) == 0 || r.Intn(2) == 0 {
			f := Frame{State: r.Intn(100), Depth: r.Intn(100)}
			s.Push(f.State, f.Depth)
			model = append(model, f)
		} else {
			got := s.Pop()
			want := model[len(model)-1]
			model = model[:len(model)-1]
			if got != want {
				t.Fatalf("op %d: pop %+v, want %+v", op, got, want)
			}
		}
		if s.Len() != len(model) {
			t.Fatalf("op %d: len %d, want %d", op, s.Len(), len(model))
		}
	}
}

func TestKindMapModel(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200}
	err := quick.Check(func(ops []bool) bool {
		var s KindMap
		model := map[int]bool{}
		for i, v := range ops {
			d := (i * 7) % 300
			s.Set(d, v)
			model[d] = v
			for dd, want := range model {
				if s.Get(dd) != want {
					return false
				}
			}
		}
		return true
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
}

func TestKindMapDeepAndOverwrite(t *testing.T) {
	var s KindMap
	for i := 0; i < 1000; i++ {
		s.Set(i, i%3 == 0)
	}
	for i := 0; i < 1000; i++ {
		if s.Get(i) != (i%3 == 0) {
			t.Fatalf("entry %d wrong", i)
		}
	}
	s.Set(500, true)
	s.Set(500, false)
	if s.Get(500) {
		t.Fatal("overwrite failed")
	}
	s.Reset()
	s.Set(3, true)
	if !s.Get(3) {
		t.Fatal("set after reset failed")
	}
}

func TestIntStack(t *testing.T) {
	var s IntStack
	s.Push(0)
	s.Inc()
	s.Inc()
	if s.Top() != 2 {
		t.Fatalf("Top = %d", s.Top())
	}
	s.Push(7)
	if s.Top() != 7 || s.Len() != 2 {
		t.Fatal("push broken")
	}
	s.Pop()
	if s.Top() != 2 {
		t.Fatal("pop broken")
	}
	s.Reset()
	if s.Len() != 0 {
		t.Fatal("reset broken")
	}
}

func TestIntStackDeep(t *testing.T) {
	var s IntStack
	for i := 0; i < 500; i++ {
		s.Push(i)
	}
	for i := 499; i >= 0; i-- {
		if s.Top() != i {
			t.Fatalf("entry %d wrong", i)
		}
		s.Pop()
	}
}
