package main

import (
	"strconv"
	"testing"

	"repro/internal/platform"
)

func TestCheckNP(t *testing.T) {
	vayu := platform.Vayu()
	slots := vayu.MaxRanks()
	for _, tc := range []struct {
		np   int
		want string // "" = accepted
	}{
		{1, ""},
		{32, ""},
		{slots, ""},
		{0, "chaste does not accept np=0"},
		{-4, "chaste does not accept np=-4"},
		{slots + 1, "np=" + strconv.Itoa(slots+1) + " exceeds vayu's maximum of " + strconv.Itoa(slots) + " ranks"},
		{20000, "np=20000 exceeds vayu's maximum of " + strconv.Itoa(slots) + " ranks"},
	} {
		err := checkNP(tc.np, vayu)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("np=%d rejected: %v", tc.np, err)
		case tc.want != "" && (err == nil || err.Error() != tc.want):
			t.Errorf("np=%d: got error %v, want %q", tc.np, err, tc.want)
		}
	}
}
