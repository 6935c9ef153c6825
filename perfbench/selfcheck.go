package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// benchmarkFile is the part of BENCHMARK.json the self-check reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// runSelfCheck runs every workload at tiny size, untraced and traced,
// and checks that each prints exactly the metrics BENCHMARK.json
// declares, with the declared units, and passes its correctness checks.
func runSelfCheck() error {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	declared := map[string]bool{}
	for _, w := range bf.Workloads {
		declared[w.Name] = true
	}
	for name := range declaredWorkloads {
		if !declared[name] {
			return fmt.Errorf("workload %s missing from BENCHMARK.json", name)
		}
	}
	for name := range declared {
		if !declaredWorkloads[name] {
			return fmt.Errorf("BENCHMARK.json workload %s is not declared in perfbench", name)
		}
	}
	saved := simBursty.Duration
	simBursty.Duration = 30 * time.Second
	defer func() { simBursty.Duration = saved }()
	for _, name := range []string{"twitter-router", "short-json", "generative", "sim-bursty"} {
		for _, traced := range []bool{false, true} {
			rep, err := run(name, 1, 2, traced)
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			if !rep.Correct {
				return fmt.Errorf("%s trace=%v: failed checks: %s", name, traced, strings.Join(rep.Checks, "; "))
			}
			if rep.Attempted < 1 {
				return fmt.Errorf("%s: no requests attempted", name)
			}
			if blob, err := json.Marshal(line{rep.Correct, rep.Attempted, rep.Failed, rep.Metrics}); err != nil {
				return err
			} else if err := checkLineSchema(blob); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			if !declared[name] {
				fmt.Printf("perfbench: self-check %s trace=%v ok (%d metrics; not a BENCHMARK.json workload)\n", name, traced, len(rep.Metrics))
				continue
			}
			want := map[string]string{}
			if traced {
				for _, m := range bf.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range bf.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			if err := sameMetrics(rep.Metrics, want); err != nil {
				return fmt.Errorf("%s trace=%v: %w", name, traced, err)
			}
			fmt.Printf("perfbench: self-check %s trace=%v ok (%d metrics)\n", name, traced, len(rep.Metrics))
		}
	}
	return nil
}

// checkLineSchema checks the last-line object has exactly the four keys
// and that every metric is a {value, unit} pair.
func checkLineSchema(blob []byte) error {
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(blob, &raw); err != nil {
		return err
	}
	var keys []string
	for k := range raw {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if strings.Join(keys, ",") != "attempted,correct,failed,metrics" {
		return fmt.Errorf("result keys %v", keys)
	}
	var ms map[string]map[string]json.RawMessage
	if err := json.Unmarshal(raw["metrics"], &ms); err != nil {
		return err
	}
	for name, m := range ms {
		if len(m) != 2 || m["value"] == nil || m["unit"] == nil {
			return fmt.Errorf("metric %s is not {value, unit}", name)
		}
	}
	return nil
}

func sameMetrics(got map[string]metric, want map[string]string) error {
	for name, unit := range want {
		m, ok := got[name]
		if !ok {
			return fmt.Errorf("metric %s missing", name)
		}
		if m.Unit != unit {
			return fmt.Errorf("metric %s has unit %q, BENCHMARK.json says %q", name, m.Unit, unit)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			return fmt.Errorf("metric %s not declared in BENCHMARK.json", name)
		}
	}
	return nil
}
