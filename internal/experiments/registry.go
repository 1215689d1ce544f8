package experiments

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/des"
	"repro/internal/workload"
)

// Metric is one headline quantity of an artefact; the benchmark harness
// reports it under Name.
type Metric struct {
	Name  string
	Value float64
}

// Section is one titled block of an artefact's text. An empty Title
// takes the artefact's.
type Section struct{ Title, Body string }

// Result is one regenerated artefact.
type Result struct {
	Sections []Section
	Metrics  []Metric
}

// Text renders the result as cmd/figures prints it: per section the
// title, the body and a blank line.
func (r Result) Text() string {
	var b strings.Builder
	for _, s := range r.Sections {
		b.WriteString(s.Title + "\n" + s.Body + "\n")
	}
	return b.String()
}

// Artefact is one table, figure or ablation of the evaluation.
type Artefact struct {
	// Name is the -fig argument and benchmark sub-name; Aliases are the
	// other spellings cmd/figures has accepted.
	Name    string
	Aliases []string
	Title   string
	// BenchRanks caps the rank count the benchmark harness runs at (0 =
	// no cap).
	BenchRanks int
	run        func(RunOpts) (Result, error)
}

// Run regenerates the artefact.
func (a Artefact) Run(o RunOpts) (Result, error) {
	res, err := a.run(o)
	for i := range res.Sections {
		if res.Sections[i].Title == "" {
			res.Sections[i].Title = a.Title
		}
	}
	return res, err
}

// Names lists the artefacts' primary names in list order.
func Names() []string {
	names := make([]string, len(Artefacts))
	for i, a := range Artefacts {
		names[i] = a.Name
	}
	return names
}

// Select resolves a -fig argument: one artefact by name or alias, or
// "all" for every artefact in list order. The error for an unknown
// name lists the valid ones.
func Select(name string) ([]Artefact, error) {
	var out []Artefact
	for _, a := range Artefacts {
		if name == "all" || a.Name == name || slices.Contains(a.Aliases, name) {
			out = append(out, a)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("experiments: unknown artefact %q; valid: %s, all", name, strings.Join(Names(), ", "))
	}
	return out, nil
}

// table adapts a row-producing function, its renderer and its headline
// metrics (nil for none) to an artefact's run.
func table[R any](rows func(RunOpts) (R, error), sections func(R) []Section, metrics func(R) []Metric) func(RunOpts) (Result, error) {
	return func(o RunOpts) (Result, error) {
		r, err := rows(o)
		if err != nil {
			return Result{}, err
		}
		res := Result{Sections: sections(r)}
		if metrics != nil {
			res.Metrics = metrics(r)
		}
		return res, nil
	}
}

// body is the sections of a single-table artefact.
func body[R any](format func(R) string) func(R) []Section {
	return func(r R) []Section { return []Section{{Body: format(r)}} }
}

// Artefacts is the evaluation, declared once: cmd/figures, cmd/report,
// the benchmark harness and the golden test all iterate this list. The
// order is the order "all" prints.
var Artefacts = []Artefact{
	{Name: "table2", Title: "Table 2. Memory Footprint Size (MB)",
		run: table(Table2, body(FormatTable2), func(r []Table2Row) []Metric {
			return []Metric{{"sage1000_avg_fp_MB", r[0].AvgMB}, {"sage1000_max_fp_MB", r[0].MaxMB}}
		})},
	{Name: "table3", Title: "Table 3. Characteristics of the Main Iteration",
		run: table(Table3, body(FormatTable3), func(r []Table3Row) []Metric {
			return []Metric{{"sage1000_period_s", r[0].PeriodS}, {"sage1000_overwrite_pct", r[0].OverwritePct}}
		})},
	{Name: "table4", Title: "Table 4. Bandwidth Requirements (MB/s), timeslice 1 s",
		run: table(Table4, body(FormatTable4), func(r []Table4Row) []Metric {
			return []Metric{{"sage1000_avg_ib_MBs", r[0].AvgMBs}, {"sage1000_max_ib_MBs", r[0].MaxMBs}}
		})},
	{Name: "fig1", Aliases: []string{"1"}, Title: "Figure 1. Sage-1000MB IWS size and data received per timeslice",
		run: table(Fig1, func(r *Fig1Result) []Section {
			return []Section{
				{"Figure 1(a). Sage-1000MB IWS size per timeslice (MB), timeslice 1 s", FormatSeries(r.IWS)},
				{"Figure 1(b). Sage-1000MB data received per timeslice (MB)",
					FormatSeries(r.Recv) + fmt.Sprintf("\ndetected main-iteration period: %.1f s\n", r.DetectedPeriodS)},
			}
		}, func(r *Fig1Result) []Metric { return []Metric{{"detected_period_s", r.DetectedPeriodS}} })},
	{Name: "fig2", Aliases: []string{"2"}, Title: "Figure 2. Maximum and average IB vs timeslice, six applications",
		run: table(func(o RunOpts) ([]Fig2Result, error) { return Fig2(o, nil) }, func(r []Fig2Result) []Section {
			var out []Section
			for i, p := range r {
				out = append(out, Section{
					fmt.Sprintf("Figure 2(%c). %s: IB (MB/s) vs timeslice (paper @1s: avg %.1f, max %.1f)", 'a'+i, p.App, p.PaperAvg1s, p.PaperMax1s),
					FormatCurves([]Curve{p.Avg, p.Max})})
			}
			return out
		}, func(r []Fig2Result) []Metric {
			return []Metric{{"sage1000_avg_ib_at_20s_MBs", r[0].Avg.Points[len(r[0].Avg.Points)-1].Value}}
		})},
	// Figures 3 and 4 derive from one sweep, so they are one artefact.
	{Name: "fig3", Aliases: []string{"3", "4", "fig4"}, Title: "Figures 3 and 4. Sage footprints vs timeslice",
		run: table(func(o RunOpts) (*Fig3Result, error) { return Fig3(o, nil) }, func(r *Fig3Result) []Section {
			return []Section{
				{"Figure 3. Average IB (MB/s) vs timeslice for the Sage footprints", FormatCurves(r.AvgIB)},
				{"Figure 4. IWS size / memory image size (%) vs timeslice", FormatCurves(r.Ratio)},
			}
		}, func(r *Fig3Result) []Metric {
			return []Metric{{"ib_1000MB_over_500MB", r.AvgIB[0].Points[0].Value / r.AvgIB[1].Points[0].Value}}
		})},
	{Name: "fig5", Aliases: []string{"5"}, Title: "Figure 5. Average IB (MB/s) vs timeslice for Sage-1000MB at 8-64 ranks",
		run: table(func(o RunOpts) (*Fig5Result, error) { return Fig5(o, nil) },
			body(func(r *Fig5Result) string { return FormatCurves(r.Curves) }),
			// Per-process IB at 64 vs 8 ranks (paper: slightly below 1).
			func(r *Fig5Result) []Metric {
				return []Metric{{"ib64_over_ib8", r.Curves[0].Points[0].Value / r.Curves[3].Points[0].Value}}
			})},
	{Name: "intrusiveness", Title: "Section 6.5. Instrumentation slowdown for Sage-1000MB",
		run: table(func(o RunOpts) ([]IntrusivenessRow, error) { return Intrusiveness(o, nil) }, body(FormatIntrusiveness),
			func(r []IntrusivenessRow) []Metric { return []Metric{{"slowdown_at_1s_pct", r[0].Slowdown * 100}} })},
	{Name: "pagesize", Title: "Ablation: checkpoint granularity (page size), Sage-100MB, timeslice 1 s", BenchRanks: 8,
		run: table(func(o RunOpts) ([]PageSizeRow, error) { return PageSizeAblation(workload.Sage100MB(), o, nil) }, body(FormatPageSize),
			func(r []PageSizeRow) []Metric {
				return []Metric{{"ib_64k_over_4k", r[2].AvgIBMBs / r[0].AvgIBMBs}, {"faults_4k_over_64k", r[0].FaultsPerSec / r[2].FaultsPerSec}}
			})},
	{Name: "sinks", Title: "Sink comparison for Sage-1000MB's 1 s requirement (§3, [19])", BenchRanks: 8,
		run: table(func(o RunOpts) ([]SinkRow, error) { return SinkComparison(workload.Sage1000MB(), o) }, body(FormatSinks),
			func(r []SinkRow) []Metric { return []Metric{{"disk_headroom", r[1].HeadroomAvg}} })},
	{Name: "compression", Title: "Ablation: checkpoint-size optimisations on a real stencil ([18])",
		run: table(func(RunOpts) ([]CompressionRow, error) { return CompressionAblation(0, 0, 0) }, body(FormatCompression),
			func(r []CompressionRow) []Metric { return []Metric{{"combined_savings_pct", r[3].Savings * 100}} })},
	{Name: "bursts", Title: "Processing-burst structure of every application (§6.2, the unplotted graphs)",
		run: table(BurstProfile, body(FormatBursts),
			func(r []BurstRow) []Metric { return []Metric{{"sage1000_quiet_pct", r[0].QuietFrac * 100}} })},
	{Name: "adaptive", Title: "Adaptive quiet-window checkpoint alignment (§6.2/§8 proposal), Sage-1000MB, 45 s cadence", BenchRanks: 8,
		run: table(func(o RunOpts) ([]AdaptiveRow, error) { return AdaptiveAlignment(o, 0) }, body(FormatAdaptive),
			func(r []AdaptiveRow) []Metric {
				return []Metric{{"fixed_cow_MB", r[0].CowMB}, {"adaptive_cow_MB", r[1].CowMB}}
			})},
	{Name: "migration", Title: "Live migration of Sage-1000MB over QsNet, by trigger phase (§6.2, §7)", BenchRanks: 8,
		run: table(MigrationPhases, body(FormatMigration), func(r []MigrationRow) []Metric {
			return []Metric{{"burst_downtime_ms", r[0].DowntimeMs}, {"window_downtime_ms", r[1].DowntimeMs}}
		})},
	{Name: "faults", Title: "Ablation: storage-tier faults vs the hardening stack (A14), supervised Jacobi, 4 ranks",
		run: table(func(RunOpts) ([]FaultRow, error) { return StorageFaultAblation(nil) }, body(FormatFaults),
			func(rows []FaultRow) []Metric {
				var degraded, completed int
				for _, r := range rows {
					degraded += r.Degraded
					completed += r.Completed
				}
				return []Metric{{"runs_completed", float64(completed)}, {"degraded_recoveries", float64(degraded)}}
			})},
	{Name: "cluster", Title: "Ablation: cluster faults — flaky interconnect, heartbeat detection, two-phase commit (A15)",
		run: table(func(RunOpts) ([]ClusterRow, error) { return FaultyClusterAblation(nil) }, body(FormatCluster), nil)},
	{Name: "chaos", Title: "Ablation: chaos schedules vs crash–restore–replay equivalence (A16), supervised Jacobi, 4 ranks",
		run: table(func(RunOpts) ([]ChaosRow, error) { return ChaosReplayAblation(nil) }, body(FormatChaos), nil)},
	{Name: "service", Title: "Ablation: checkpoint-store service under load and faults (A17), 3 replicas, 1 s timeslice",
		run: table(func(o RunOpts) ([]ServiceRow, error) { return ServiceAblation(o.withDefaults().Seed, nil) }, body(FormatService), nil)},
	{Name: "rdma", Title: "Ablation: RDMA direct-write delivery vs bounce buffers vs the drain protocol (A18), one-sided ring, 3 ranks",
		run: table(func(RunOpts) ([]RDMARow, error) { return RDMAAblation() }, body(FormatRDMA), nil)},
	{Name: "ckptset", Title: "Ablation: analysis-selected vs whole-data-segment protection (A19), 5 kernels, seeded mid-run crash",
		run: table(func(RunOpts) ([]CkptSetRow, error) { return CkptSetAblation() }, body(FormatCkptSet), nil)},
	{Name: "multilevel", Title: "Ablation: multi-level checkpointing under correlated domain crashes (A21), 8 ranks, scheme x domain size x interval",
		run: table(func(RunOpts) ([]MultiLevelRow, error) { return MultiLevelAblation(nil) }, body(FormatMultiLevel), nil)},
	{Name: "trends", Title: "Section 6.6. Technological trends: projected feasibility margins", BenchRanks: 8,
		run: table(func(o RunOpts) ([]TrendRow, error) { return Trends(o, 8) }, body(FormatTrends),
			func(r []TrendRow) []Metric { return []Metric{{"net_headroom_2012", r[8].NetHeadroom}} })},
	{Name: "alignment", Aliases: []string{"a1"}, Title: "Ablation: checkpoint placement vs the bulk-synchronous structure (A1), Sage-1000MB, one checkpoint per iteration", BenchRanks: 8,
		run: table(AblationAlignment, body(FormatAlignment), func(r *AlignmentResult) []Metric {
			return []Metric{{"midburst_cow_MB", r.MidBurstCowMB}, {"aligned_cow_MB", r.AlignedCowMB}}
		})},
	{Name: "efficiency", Aliases: []string{"a2"}, Title: "Extension: machine efficiency under failures vs checkpoint interval (A2), Sage-1000MB, 1 h system MTBF", BenchRanks: 8,
		run: table(func(o RunOpts) (*EfficiencyResult, error) { return Efficiency(o, des.FromSeconds(3600)) }, body(FormatEfficiency),
			func(r *EfficiencyResult) []Metric {
				return []Metric{{"best_efficiency_pct", r.BestEff * 100}, {"daly_interval_s", r.DalyS}}
			})},
	{Name: "incremental", Aliases: []string{"a3"}, Title: "Ablation: incremental vs full checkpoint volume and memory exclusion (A3), Sage-1000MB, 10 s interval", BenchRanks: 8,
		run: table(func(o RunOpts) (*IncrementalResult, error) {
			o.Periods = 2 // the window BenchmarkAblationIncremental always measured
			return AblationIncremental(o, 10*des.Second)
		}, body(FormatIncremental), func(r *IncrementalResult) []Metric {
			return []Metric{{"incremental_over_full", r.Ratio}, {"excluded_MB", r.ExcludedMB}}
		})},
	{Name: "symmetry", Aliases: []string{"a7"}, Title: "Validation: per-rank IB spread with every rank tracked (A7, §6.1's premise), SP", BenchRanks: 16,
		run: table(func(o RunOpts) (*SymmetryResult, error) { return RankSymmetry(workload.SP(), o) }, body(FormatSymmetry),
			func(r *SymmetryResult) []Metric { return []Metric{{"max_rank_spread_pct", r.MaxSpread * 100}} })},
	{Name: "aggregate", Aliases: []string{"a9"}, Title: "Extension: whole-machine feasibility up to BlueGene/L scale (A9), Sage-1000MB", BenchRanks: 8,
		run: table(func(o RunOpts) ([]AggregateRow, error) { return AggregateFeasibility(workload.Sage1000MB(), o, nil) }, body(FormatAggregate), nil)},
}
