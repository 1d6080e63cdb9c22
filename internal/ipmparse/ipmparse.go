// Package ipmparse reimplements IPM's ipm_parse utility (paper Section
// II): it reads the XML profiling log a monitored run writes and
// regenerates the banner, produces an HTML report suited for permanent
// storage of profiles, or converts the profile to the CUBE format for the
// Scalasca GUI.
package ipmparse

import (
	"fmt"
	"html/template"
	"io"
	"sort"
	"time"

	"ipmgo/internal/cube"
	"ipmgo/internal/ipm"
)

// Load reads an IPM XML profiling log strictly: it rejects any XML
// syntax error, a top-level element other than ipm_log, and anything
// LoadTolerant would have to salvage or warn about. A log declaring more
// tasks than it holds is data, not damage, and loads as a partial run.
func Load(r io.Reader) (*ipm.JobProfile, error) { return ipm.ParseXML(r) }

// LoadTolerant reads an IPM XML profiling log in salvage mode: truncated
// documents (a rank died mid-write), interleaved or unclosed task
// elements, and corrupt attributes are recovered as far as possible, and
// the report describes what was lost. This is how ipm_parse must behave
// on the log of a job that did not end cleanly.
func LoadTolerant(r io.Reader) (*ipm.JobProfile, *ipm.ParseReport, error) {
	return ipm.ParseXMLTolerant(r)
}

// WriteBanner regenerates the termination banner from a parsed log.
func WriteBanner(w io.Writer, jp *ipm.JobProfile, full bool) error {
	return ipm.WriteBanner(w, jp, ipm.BannerOptions{Full: full})
}

// WriteCUBE converts the profile to CUBE XML.
func WriteCUBE(w io.Writer, jp *ipm.JobProfile) error { return cube.Write(w, jp) }

// htmlReport is the template's view model.
type htmlReport struct {
	Command   string
	NTasks    int
	Nodes     int
	Wallclock string
	CommPct   string
	GPUPct    string
	IdlePct   string
	// SubmitStall is the job-wide command-queue submit stall; empty when
	// the run did not model the queue layer, which drops the row.
	SubmitStall string
	// Device names the device backend the profile recorded; Energy is
	// the job-wide attributed energy. Both are empty — dropping their
	// rows — for profiles from unpowered or pre-registry runs.
	Device  string
	Energy  string
	Funcs   []htmlFunc
	Ranks   []htmlRank
	Balance []htmlBalance
}

type htmlFunc struct {
	Name    string
	Time    string
	Count   int64
	PctWall string
	Submits int64
	Stall   string
	Energy  string
}

type htmlRank struct {
	Rank      int
	Host      string
	Wallclock string
	MPI       string
	CUDA      string
}

type htmlBalance struct {
	Name      string
	Min       string
	Avg       string
	Max       string
	Imbalance string
}

var htmlTmpl = template.Must(template.New("report").Parse(`<!DOCTYPE html>
<html><head><meta charset="utf-8"><title>IPM profile: {{.Command}}</title>
<style>
body { font-family: sans-serif; margin: 2em; }
table { border-collapse: collapse; margin-bottom: 2em; }
th, td { border: 1px solid #999; padding: 0.2em 0.6em; text-align: right; }
th { background: #eee; }
td.l, th.l { text-align: left; }
</style></head><body>
<h1>IPM v2.0 profile</h1>
<table>
<tr><th class="l">command</th><td class="l">{{.Command}}</td></tr>
<tr><th class="l">mpi_tasks</th><td>{{.NTasks}} on {{.Nodes}} nodes</td></tr>
<tr><th class="l">wallclock</th><td>{{.Wallclock}}</td></tr>
<tr><th class="l">%comm</th><td>{{.CommPct}}</td></tr>
<tr><th class="l">%gpu</th><td>{{.GPUPct}}</td></tr>
<tr><th class="l">%host idle</th><td>{{.IdlePct}}</td></tr>
{{if .SubmitStall}}<tr><th class="l">submit stall</th><td>{{.SubmitStall}}</td></tr>
{{end}}{{if .Device}}<tr><th class="l">device</th><td class="l">{{.Device}}</td></tr>
{{end}}{{if .Energy}}<tr><th class="l">energy</th><td>{{.Energy}}</td></tr>
{{end}}</table>
<h2>Events</h2>
<table>
<tr><th class="l">name</th><th>time [s]</th><th>count</th><th>%wall</th><th>submits</th><th>stall [s]</th><th>energy [J]</th></tr>
{{range .Funcs}}<tr><td class="l">{{.Name}}</td><td>{{.Time}}</td><td>{{.Count}}</td><td>{{.PctWall}}</td><td>{{.Submits}}</td><td>{{.Stall}}</td><td>{{.Energy}}</td></tr>
{{end}}</table>
<h2>Tasks</h2>
<table>
<tr><th>rank</th><th class="l">host</th><th>wallclock [s]</th><th>MPI [s]</th><th>CUDA [s]</th></tr>
{{range .Ranks}}<tr><td>{{.Rank}}</td><td class="l">{{.Host}}</td><td>{{.Wallclock}}</td><td>{{.MPI}}</td><td>{{.CUDA}}</td></tr>
{{end}}</table>
<h2>Load balance (top events)</h2>
<table>
<tr><th class="l">name</th><th>min [s]</th><th>avg [s]</th><th>max [s]</th><th>max/avg</th></tr>
{{range .Balance}}<tr><td class="l">{{.Name}}</td><td>{{.Min}}</td><td>{{.Avg}}</td><td>{{.Max}}</td><td>{{.Imbalance}}</td></tr>
{{end}}</table>
</body></html>
`))

func secs(d time.Duration) string { return fmt.Sprintf("%.2f", d.Seconds()) }

// WriteHTML produces the HTML report form of the profile.
func WriteHTML(w io.Writer, jp *ipm.JobProfile) error {
	wall := jp.WallclockSpread().Total
	rep := htmlReport{
		Command:   jp.Command,
		NTasks:    jp.NTasks(),
		Nodes:     jp.Nodes,
		Wallclock: secs(jp.Wallclock()),
		CommPct:   fmt.Sprintf("%.2f", jp.CommPercent()),
		GPUPct:    fmt.Sprintf("%.2f", jp.GPUPercent()),
		IdlePct:   fmt.Sprintf("%.2f", jp.HostIdlePercent()),
	}
	if st := jp.TotalSubmitStall(); st > 0 {
		rep.SubmitStall = secs(st) + " s"
	}
	rep.Device = jp.DeviceName()
	if e := jp.TotalEnergyJoules(); e > 0 {
		rep.Energy = fmt.Sprintf("%.2f J", e)
	}
	fts := jp.FuncTotals()
	for _, ft := range fts {
		pct := 0.0
		if wall > 0 {
			pct = 100 * float64(ft.Stats.Total) / float64(wall)
		}
		rep.Funcs = append(rep.Funcs, htmlFunc{
			Name:    ft.Name,
			Time:    secs(ft.Stats.Total),
			Count:   ft.Stats.Count,
			PctWall: fmt.Sprintf("%.2f", pct),
			Submits: ft.Stats.Submits,
			Stall:   secs(ft.Stats.SubmitStall),
			Energy:  fmt.Sprintf("%.2f", ft.Stats.EnergyJoules()),
		})
	}
	for _, r := range jp.Ranks {
		rep.Ranks = append(rep.Ranks, htmlRank{
			Rank:      r.Rank,
			Host:      r.Host,
			Wallclock: secs(r.Wallclock),
			MPI:       secs(r.DomainTime(ipm.DomainMPI)),
			CUDA:      secs(r.DomainTime(ipm.DomainCUDA)),
		})
	}
	sort.Slice(rep.Ranks, func(i, j int) bool { return rep.Ranks[i].Rank < rep.Ranks[j].Rank })

	top := fts
	if len(top) > 10 {
		top = top[:10]
	}
	// Balance rows need a per-rank spread for each top event. Collect all
	// of them in one pass over the rank entries rather than re-walking
	// every rank per name (FuncSpread) and then again for the imbalance
	// ratio — on wide jobs that was 2×top×ranks entry scans.
	idx := make(map[string]int, len(top))
	for i, ft := range top {
		idx[ft.Name] = i
	}
	vals := make([][]time.Duration, len(top))
	for i := range vals {
		vals[i] = make([]time.Duration, len(jp.Ranks))
	}
	for ri, r := range jp.Ranks {
		for _, e := range r.Entries {
			if i, ok := idx[e.Sig.Name]; ok {
				vals[i][ri] += e.Stats.Total
			}
		}
	}
	for i, ft := range top {
		// The same min/avg/max fold FuncSpread applies, over the
		// prefetched values; imbalance is max/avg of that spread.
		var min, max, total time.Duration
		if len(vals[i]) > 0 {
			min, max = vals[i][0], vals[i][0]
		}
		for _, v := range vals[i] {
			total += v
			if v < min {
				min = v
			}
			if v > max {
				max = v
			}
		}
		var avg time.Duration
		if len(vals[i]) > 0 {
			avg = total / time.Duration(len(vals[i]))
		}
		imb := 0.0
		if avg != 0 {
			imb = float64(max) / float64(avg)
		}
		rep.Balance = append(rep.Balance, htmlBalance{
			Name:      ft.Name,
			Min:       secs(min),
			Avg:       secs(avg),
			Max:       secs(max),
			Imbalance: fmt.Sprintf("%.2f", imb),
		})
	}
	return htmlTmpl.Execute(w, rep)
}
