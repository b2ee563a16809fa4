package main

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/platform"
)

func TestCheckNPs(t *testing.T) {
	vayu := platform.Vayu()
	slots := vayu.MaxRanks()
	if err := checkNPs("ep", []int{1, 64, slots}, vayu); err != nil {
		t.Fatalf("valid counts rejected: %v", err)
	}
	err := checkNPs("ep", []int{64, 16384}, vayu)
	if err == nil {
		t.Fatal("np=16384 on vayu accepted")
	}
	for _, want := range []string{"np=16384", "vayu", strconv.Itoa(slots)} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not mention %q", err, want)
		}
	}
	if err := checkNPs("bt", []int{8}, vayu); err == nil {
		t.Fatal("bt accepted a non-square np")
	}
}
