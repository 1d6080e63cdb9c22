package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
)

// metricSummary is one end-to-end metric of one workload over N runs.
type metricSummary struct {
	Unit   string    `json:"unit"`
	Better string    `json:"better"`
	Bound  float64   `json:"bound"`
	Values []float64 `json:"values"`
	Q1     float64   `json:"q1"`
	Median float64   `json:"median"`
	Q3     float64   `json:"q3"`
	// Spread is (Q3-Q1)/median, the figure the acceptance rule compares
	// with the bound; MaxDev is the largest |value-median|/median.
	Spread float64 `json:"spread"`
	MaxDev float64 `json:"max_dev"`
}

type repeatSummary struct {
	Seconds   float64                             `json:"seconds"`
	Seeds     []uint64                            `json:"seeds"`
	Workloads map[string]map[string]metricSummary `json:"workloads"`
}

func summarize(sp spec, values []float64) metricSummary {
	q1, med, q3 := quartiles(values)
	m := metricSummary{Unit: sp.Unit, Better: sp.Better, Bound: sp.Bound, Values: values, Q1: q1, Median: med, Q3: q3}
	if med != 0 {
		m.Spread = (q3 - q1) / med
		for _, v := range values {
			m.MaxDev = math.Max(m.MaxDev, math.Abs(v-med)/med)
		}
	}
	return m
}

// repeatRuns runs each chosen workload o.repeat times, every run a
// fresh process on its own seed as the driver's runs are, and prints
// each end-to-end metric's quartiles and spread against its bound.
func repeatRuns(o options, stdout io.Writer) error {
	defs := workloadDefs
	if o.workload != "all" {
		def, ok := findWorkload(o.workload)
		if !ok {
			return fmt.Errorf("unknown workload %q", o.workload)
		}
		defs = []workloadDef{def}
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	sum := repeatSummary{Seconds: o.seconds, Workloads: map[string]map[string]metricSummary{}}
	for i := 0; i < o.repeat; i++ {
		sum.Seeds = append(sum.Seeds, o.seed+uint64(i))
	}
	for _, def := range defs {
		values := map[string][]float64{}
		for _, seed := range sum.Seeds {
			args := []string{"-workload", def.name, "-seed", strconv.FormatUint(seed, 10),
				"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-out", o.outDir}
			if o.smoke {
				args = append(args, "-smoke")
			}
			cmd := exec.Command(self, args...)
			cmd.Stderr = os.Stderr
			outBytes, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", def.name, seed, err)
			}
			lines := bytes.Split(bytes.TrimSpace(outBytes), []byte("\n"))
			var res result
			if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
				return fmt.Errorf("%s seed %d: result line: %w", def.name, seed, err)
			}
			if !res.Correct || res.Failed > 0 {
				return fmt.Errorf("%s seed %d: correct=%v failed=%d", def.name, seed, res.Correct, res.Failed)
			}
			for name, v := range res.Metrics {
				values[name] = append(values[name], v.Value)
			}
			fmt.Fprintf(stdout, "%s seed %d done\n", def.name, seed)
		}
		sum.Workloads[def.name] = map[string]metricSummary{}
		fmt.Fprintf(stdout, "%s over %d runs of %gs:\n", def.name, o.repeat, o.seconds)
		for _, sp := range endToEnd {
			m := summarize(sp, values[sp.Name])
			sum.Workloads[def.name][sp.Name] = m
			verdict := "ok"
			if m.Spread > sp.Bound {
				verdict = "SPREAD OVER BOUND"
			} else if m.Spread > sp.Bound/3 {
				verdict = "over a third of the bound"
			}
			fmt.Fprintf(stdout, "  %-18s q1=%-12.6g median=%-12.6g q3=%-12.6g %-4s spread=%5.2f%% maxdev=%5.2f%% bound=%g%%  %s\n",
				sp.Name, m.Q1, m.Median, m.Q3, sp.Unit, 100*m.Spread, 100*m.MaxDev, 100*sp.Bound, verdict)
		}
	}
	if o.outFile == "" {
		return nil
	}
	data, err := json.MarshalIndent(sum, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(o.outFile, append(data, '\n'), 0o644)
}
