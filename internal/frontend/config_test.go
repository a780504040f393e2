package frontend

import (
	"encoding/json"
	"os"
	"strings"
	"testing"

	"repro/internal/workload"
)

// resolve resolves a -frontend argument the way bypassd-bench does.
func resolve(ref string) (Fleet, error) {
	return workload.Resolve(ref, Builtins(), func(fl Fleet) string { return fl.Name })
}

// docConfig returns the JSON config EXPERIMENTS.md shows for file: the
// text between its "$ cat file" line and the next shell prompt.
func docConfig(t testing.TB, file string) []byte {
	t.Helper()
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	_, rest, ok := strings.Cut(string(doc), "$ cat "+file+"\n")
	if !ok {
		t.Fatalf("EXPERIMENTS.md shows no %s", file)
	}
	cfg, _, _ := strings.Cut(rest, "\n$ ")
	return []byte(cfg)
}

// TestFleetConfigStrict: the documented example config loads and
// normalizes, and the same config with one misspelled key, or with
// data after it, is rejected instead of silently running with
// defaults.
func TestFleetConfigStrict(t *testing.T) {
	doc := docConfig(t, "fleet.json")
	fl, err := workload.Decode[Fleet](doc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fl.normalized(); err != nil {
		t.Fatal(err)
	}
	if fl.Name != "my-fleet" || fl.Pool != 16 || fl.RateOps != 4_000_000 || fl.Admission != AdmitCoDel {
		t.Fatalf("example decoded as %+v", fl)
	}
	for name, bad := range map[string]string{
		"misspelled key": strings.Replace(string(doc), `"rate_ops"`, `"rate_opps"`, 1),
		"trailing data":  string(doc) + `{"name": "second"}`,
	} {
		if _, err := workload.Decode[Fleet]([]byte(bad)); err == nil {
			t.Errorf("%s: config accepted", name)
		}
	}
}

// FuzzFleetConfig: decoding and normalizing any input never panics,
// and every fleet Run would accept survives a JSON round trip
// unchanged, both as written and with its defaults filled in.
func FuzzFleetConfig(f *testing.F) {
	f.Add(docConfig(f, "fleet.json"))
	for _, fl := range Builtins() {
		data, err := json.Marshal(fl)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fl, err := workload.Decode[Fleet](data)
		if err != nil {
			return
		}
		norm, err := fl.normalized()
		if err != nil {
			return
		}
		for _, want := range []Fleet{fl, norm} {
			out, err := json.Marshal(want)
			if err != nil {
				t.Fatal(err)
			}
			back, err := workload.Decode[Fleet](out)
			if err != nil {
				t.Fatalf("re-decoding %s: %v", out, err)
			}
			if back != want {
				t.Fatalf("round trip changed the fleet:\n%+v\nvs\n%+v", back, want)
			}
		}
	})
}
