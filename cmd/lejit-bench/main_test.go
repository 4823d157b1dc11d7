package main

import (
	"slices"
	"strings"
	"testing"
)

func TestParseFigs(t *testing.T) {
	cases := []struct {
		list    string
		want    []string // figures that must be selected; every other one must not be
		wantErr string   // substring of the error, "" = no error
	}{
		{list: "all", want: []string{"3l", "3r", "4l", "4r", "5", "abl"}},
		{list: "3l", want: []string{"3l"}},
		{list: "3l, 3r ,abl", want: []string{"3l", "3r", "abl"}},
		{list: "5,all", want: []string{"3l", "3r", "4l", "4r", "5", "abl"}},
		{list: "laod", wantErr: `"laod"`},
		{list: "load", wantErr: `"load"`},
		{list: "3l,spec", wantErr: `"spec"`},
		{list: "", wantErr: `""`},
		{list: "3l,", wantErr: `""`},
	}
	for _, tc := range cases {
		got, err := parseFigs(tc.list)
		if tc.wantErr != "" {
			if err == nil {
				t.Errorf("parseFigs(%q) = %v, want an error", tc.list, got)
				continue
			}
			for _, sub := range []string{tc.wantErr, "all,3l,3r,4l,4r,5,abl"} {
				if !strings.Contains(err.Error(), sub) {
					t.Errorf("parseFigs(%q) error %q does not mention %s", tc.list, err, sub)
				}
			}
			continue
		}
		if err != nil {
			t.Errorf("parseFigs(%q): %v", tc.list, err)
			continue
		}
		for _, f := range figNames[1:] {
			if sel := slices.Contains(tc.want, f); got[f] != sel {
				t.Errorf("parseFigs(%q)[%q] = %v, want %v", tc.list, f, got[f], sel)
			}
		}
	}
}
