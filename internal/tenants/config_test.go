package tenants

import (
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/workload"
)

// resolve resolves a -tenants argument the way bypassd-bench does.
func resolve(ref string) (Scenario, error) {
	return workload.Resolve(ref, Builtins(), func(sc Scenario) string { return sc.Name })
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

// TestScenarioConfigStrict: the documented example config loads and
// validates, and the same config with one misspelled key, or with data
// after it, is rejected instead of silently running with defaults.
func TestScenarioConfigStrict(t *testing.T) {
	doc := docConfig(t, "two-tenants.json")
	sc, err := workload.Decode[Scenario](doc)
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.validate(); err != nil {
		t.Fatal(err)
	}
	if sc.Name != "two-tenants" || len(sc.Tenants) != 2 || sc.Tenants[0].RateOps != 20000 || sc.Tenants[0].QoS.Weight != 16 {
		t.Fatalf("example decoded as %+v", sc)
	}
	for name, bad := range map[string]string{
		"misspelled key": strings.Replace(string(doc), `"rate_ops"`, `"rate_opps"`, 1),
		"trailing data":  string(doc) + `{"name": "second"}`,
	} {
		if _, err := workload.Decode[Scenario]([]byte(bad)); err == nil {
			t.Errorf("%s: config accepted", name)
		}
	}
}

// FuzzScenarioConfig: decoding and validating any input never panics,
// and every config Run would accept survives a JSON round trip
// unchanged.
func FuzzScenarioConfig(f *testing.F) {
	f.Add(docConfig(f, "two-tenants.json"))
	for _, sc := range Builtins() {
		data, err := json.Marshal(sc)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sc, err := workload.Decode[Scenario](data)
		if err != nil || sc.validate() != nil {
			return
		}
		out, err := json.Marshal(sc)
		if err != nil {
			t.Fatal(err)
		}
		back, err := workload.Decode[Scenario](out)
		if err != nil {
			t.Fatalf("re-decoding %s: %v", out, err)
		}
		if !reflect.DeepEqual(back, sc) {
			t.Fatalf("round trip changed the scenario:\n%+v\nvs\n%+v", back, sc)
		}
	})
}
