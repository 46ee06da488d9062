package engine

import "testing"

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
