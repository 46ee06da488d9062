package engine

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

func TestLikePatterns(t *testing.T) {
	strs := []string{"abcdef", "abc", "xxabc", "defabc", "zzz"}
	cases := []struct {
		pattern string
		want    int
	}{
		{"abc%", 2},  // abcdef, abc
		{"%abc", 3},  // abc, xxabc, defabc
		{"%abc%", 4}, // all but zzz
		{"abc", 1},   // exact
		{"%", 5},     // everything
		{"%%", 5},    // everything
		{"", 0},      // only the empty string
		{"a%f", 1},   // abcdef
		{"%b%d%", 1}, // abcdef (b then d in order)
		{"nomatch", 0},
	}
	for _, tc := range cases {
		match, got := compileLike(tc.pattern), 0
		for _, s := range strs {
			if match(s) {
				got++
			}
		}
		if got != tc.want {
			t.Fatalf("LIKE %q matched %d strings, want %d", tc.pattern, got, tc.want)
		}
	}
	if !compileLike("")("") {
		t.Fatal("LIKE '' does not match the empty string")
	}
}

func TestHashJoinDuplicateColumnRejected(t *testing.T) {
	left := newLayout([]streamCol{{name: "x.k"}, {name: "shared"}})
	right := newLayout([]streamCol{{name: "y.k"}, {name: "shared", isStr: true}})
	if _, err := makeJoinLayout(left, right); err == nil {
		t.Fatal("a column name on both join sides should error")
	}
	if l, err := makeJoinLayout(left, newLayout([]streamCol{{name: "y.k"}})); err != nil || len(l.cols) != 3 {
		t.Fatalf("distinct sides: %v, %v", l, err)
	}
}

// TestStableOrderMatchesSliceStable holds both sort paths to the stable
// sort they replaced, on keys with many ties: int keys whose range packs
// with the row into one word, int keys whose range does not, and strings.
func TestStableOrderMatchesSliceStable(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 2, 7, 1000, 5000} {
		narrow, wide, strs := make([]int64, n), make([]int64, n), make([]string, n)
		for i := range narrow {
			narrow[i] = rng.Int63n(50) - 25
			wide[i] = []int64{math.MinInt64, -1, 0, 3, math.MaxInt64}[rng.Intn(5)]
			strs[i] = string(rune('a' + rng.Intn(20)))
		}
		for _, desc := range []bool{false, true} {
			for _, c := range []struct {
				name string
				got  []int
				less func(a, b int) bool
			}{
				{"narrow", stableOrderInts(narrow, desc), func(a, b int) bool { return narrow[a] < narrow[b] }},
				{"wide", stableOrderInts(wide, desc), func(a, b int) bool { return wide[a] < wide[b] }},
				{"string", stableOrder(strs, desc), func(a, b int) bool { return strs[a] < strs[b] }},
			} {
				want := make([]int, n)
				for i := range want {
					want[i] = i
				}
				sort.SliceStable(want, func(a, b int) bool {
					if desc {
						return c.less(want[b], want[a])
					}
					return c.less(want[a], want[b])
				})
				if len(c.got) != n || n > 0 && !slices.Equal(c.got, want) {
					t.Fatalf("%s keys, n=%d, desc=%v: order %v, want %v", c.name, n, desc, c.got, want)
				}
			}
		}
	}
}
