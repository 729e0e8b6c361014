package obs

import (
	"reflect"
	"testing"
)

func TestBoundedFIFO(t *testing.T) {
	b := NewBounded[string, int](3)
	for i, k := range []string{"a", "b", "c"} {
		b.Put(k, i)
	}
	b.Put("a", 10) // a rewrite keeps a's place: still the oldest
	if got := b.Values(); !reflect.DeepEqual(got, []int{10, 1, 2}) {
		t.Fatalf("Values = %v, want [10 1 2] (oldest first)", got)
	}
	b.Put("d", 3)
	b.Put("e", 4)
	if _, ok := b.Get("a"); ok {
		t.Error("a survived two evictions; FIFO evicts the oldest insertion")
	}
	if _, ok := b.Get("b"); ok {
		t.Error("b survived; FIFO evicts in insertion order")
	}
	if v, ok := b.Get("c"); !ok || v != 2 {
		t.Errorf("Get(c) = %v, %v; want 2, true", v, ok)
	}
	if got := b.Values(); !reflect.DeepEqual(got, []int{2, 3, 4}) {
		t.Fatalf("Values = %v, want [2 3 4]", got)
	}
	if b.Len() != 3 {
		t.Fatalf("Len = %d, want 3", b.Len())
	}
}
