package main

import "testing"

func TestCheckFigure(t *testing.T) {
	for _, tc := range []struct {
		figure string
		ok     bool
	}{
		{"3", true}, {"4", true}, {"5", true}, {"6", true}, {"7", true}, {"8", true},
		{"all", true},
		{"9", false}, {"2", false}, {"", false}, {"3,4", false}, {"All", false}, {"figure3", false},
	} {
		if err := checkFigure(tc.figure); (err == nil) != tc.ok {
			t.Errorf("checkFigure(%q) = %v, want ok=%v", tc.figure, err, tc.ok)
		}
	}
}
