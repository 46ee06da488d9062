package lru

import (
	"slices"
	"testing"
)

func keys(c *Cache[string, int]) []string {
	var out []string
	c.Each(func(k string, _ int) { out = append(out, k) })
	return out
}

func TestEvictsLeastRecentlyUsed(t *testing.T) {
	c := New[string, int](2)
	c.Add("a", 1)
	c.Add("b", 2)
	if v, ok := c.Get("a"); !ok || v != 1 { // touch a: b becomes the eviction candidate
		t.Fatalf("Get(a) = %d, %v", v, ok)
	}
	c.Add("d", 4)
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted as least recently used")
	}
	if got := keys(c); !slices.Equal(got, []string{"d", "a"}) {
		t.Fatalf("order %v, want [d a]", got)
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
}

func TestAddReplacesInPlace(t *testing.T) {
	c := New[string, int](3)
	c.Add("a", 1)
	c.Add("b", 2)
	c.Add("a", 10) // replaces and moves to the front, does not grow
	if v, _ := c.Get("a"); v != 10 || c.Len() != 2 {
		t.Fatalf("a = %d with %d entries, want 10 with 2", v, c.Len())
	}
	c.Add("c", 3)
	c.Add("d", 4) // evicts b, the only entry not touched since "a" was replaced
	if got := keys(c); !slices.Equal(got, []string{"d", "c", "a"}) {
		t.Fatalf("order %v, want [d c a]", got)
	}
}

func TestEachDoesNotTouch(t *testing.T) {
	c := New[string, int](2)
	c.Add("a", 1)
	c.Add("b", 2)
	c.Each(func(string, int) {})
	c.Add("c", 3)
	if _, ok := c.Get("a"); ok {
		t.Fatal("Each must not refresh recency: a should have been evicted")
	}
}

func TestZeroCapacityHoldsNothing(t *testing.T) {
	c := New[int, int](0)
	c.Add(1, 1)
	if _, ok := c.Get(1); ok || c.Len() != 0 {
		t.Fatal("a zero-capacity cache must hold nothing")
	}
}
