package experiments

import (
	"fmt"
	"math"

	"repro/internal/des"
	"repro/internal/storage"
	"repro/internal/workload"
)

// PageSizeRow is one point of the page-granularity ablation: Table 1
// lists "memory page" as the OS-level checkpointing granularity; this
// experiment quantifies what that granularity costs and buys.
type PageSizeRow struct {
	PageSizeKB int
	// AvgIBMBs is the bandwidth requirement at a 1 s timeslice: larger
	// pages inflate the IWS (false sharing — a page is saved whole even
	// if one byte changed).
	AvgIBMBs float64
	// FaultsPerSec is the instrumentation fault rate: larger pages take
	// fewer faults for the same write stream.
	FaultsPerSec float64
	// SlowdownPct is the modelled instrumentation overhead.
	SlowdownPct float64
}

// PageSizeAblation sweeps the simulated page size for one application —
// the granularity dimension of the paper's Table 1: finer pages mean
// tighter checkpoints (less bandwidth) but more write faults (more
// overhead). The Itanium II's 16 KB sits in the middle.
func PageSizeAblation(spec workload.Spec, opts RunOpts, pageSizesKB []int) ([]PageSizeRow, error) {
	if len(pageSizesKB) == 0 {
		pageSizesKB = []int{4, 16, 64}
	}
	specs := make([]workload.Spec, len(pageSizesKB))
	ro := make([]RunOpts, len(pageSizesKB))
	for i, kb := range pageSizesKB {
		specs[i] = spec
		o := opts
		o.PageSize = uint64(kb) * 1024
		o.Timeslice = des.Second
		o.Periods = periodsFor(spec, 10)
		ro[i] = o
	}
	runs, err := RunMany(specs, ro)
	if err != nil {
		return nil, err
	}
	rows := make([]PageSizeRow, len(runs))
	for i, r := range runs {
		var faults uint64
		var dur float64
		for _, s := range r.Samples {
			faults += s.Faults
			dur += (s.End - s.Start).Seconds()
		}
		rows[i] = PageSizeRow{
			PageSizeKB:   pageSizesKB[i],
			AvgIBMBs:     r.IBSummary().Mean,
			FaultsPerSec: float64(faults) / dur,
			SlowdownPct:  r.Slowdown * 100,
		}
	}
	return rows, nil
}

// SinkRow compares checkpoint sinks for one application's measured
// requirement — §3's feasibility question asked against each candidate
// device, including diskless peer memory (related work [19]).
type SinkRow struct {
	Sink string
	// PeakMBs is the sink's peak bandwidth.
	PeakMBs float64
	// HeadroomAvg is peak / average requirement; HeadroomMax uses the
	// worst timeslice.
	HeadroomAvg, HeadroomMax float64
	// CommitS is the time to commit one average 1 s delta.
	CommitS  float64
	Feasible bool
}

// SinkComparison evaluates one application's 1 s-timeslice requirement
// against the QsNet network, SCSI disk and diskless peer-memory sinks.
func SinkComparison(spec workload.Spec, opts RunOpts) ([]SinkRow, error) {
	o := opts
	o.Timeslice = des.Second
	o.Periods = periodsFor(spec, 20)
	run, err := RunOne(spec, o)
	if err != nil {
		return nil, err
	}
	m := run.IBSummary()
	sinks := []storage.Model{storage.QsNetSink(), storage.SCSISink(), storage.DisklessSink()}
	rows := make([]SinkRow, len(sinks))
	for i, s := range sinks {
		rows[i] = SinkRow{
			Sink:        s.Name,
			PeakMBs:     s.Bandwidth / MB,
			HeadroomAvg: s.Headroom(m.Mean * MB),
			HeadroomMax: s.Headroom(m.Max * MB),
			CommitS:     s.WriteTime(uint64(m.Mean * MB)).Seconds(),
			Feasible:    s.Headroom(m.Mean*MB) > 1,
		}
	}
	return rows, nil
}

// Technology growth rates for the §6.6 trends projection. The paper:
// processor performance grows 60%/year, memory 7%/year, application
// performance doubles every 2-3 years, while networking and storage
// improve faster (10 Gb/s Infiniband "by 2005").
const (
	// AppIBGrowthPerYear: application write bandwidth tracks application
	// performance — doubling every 2.5 years.
	AppIBGrowthPerYear = 1.32 // 2^(1/2.5)
	// NetworkGrowthPerYear: interconnect generations roughly double
	// every two years in this era (QsNet→QsNet II→Infiniband DDR/QDR).
	NetworkGrowthPerYear = 1.41
	// StorageGrowthPerYear: streaming disk bandwidth grew slower, ~25%.
	StorageGrowthPerYear = 1.25
)

// TrendRow is one projected year of the §6.6 analysis.
type TrendRow struct {
	Year         int
	RequiredMBs  float64
	NetworkMBs   float64
	DiskMBs      float64
	NetHeadroom  float64
	DiskHeadroom float64
}

// Trends projects the feasibility margin forward from 2004 (§6.6): the
// application requirement is this repo's measured Sage-1000MB average at
// a 1 s timeslice, grown at application-performance rates, against
// network and storage peaks grown at their own rates. The paper's
// conclusion — that margins widen — falls out when the sink growth rates
// exceed the application's.
func Trends(opts RunOpts, years int) ([]TrendRow, error) {
	if years <= 0 {
		years = 8
	}
	o := opts
	o.Timeslice = des.Second
	o.Periods = max(opts.Periods, 2)
	run, err := RunOne(workload.Sage1000MB(), o)
	if err != nil {
		return nil, err
	}
	req := run.IBSummary().Mean
	net := storage.QsNetSink().Bandwidth / MB
	disk := storage.SCSISink().Bandwidth / MB
	rows := make([]TrendRow, years+1)
	for i := 0; i <= years; i++ {
		r := req * math.Pow(AppIBGrowthPerYear, float64(i))
		n := net * math.Pow(NetworkGrowthPerYear, float64(i))
		d := disk * math.Pow(StorageGrowthPerYear, float64(i))
		rows[i] = TrendRow{
			Year:         2004 + i,
			RequiredMBs:  r,
			NetworkMBs:   n,
			DiskMBs:      d,
			NetHeadroom:  n / r,
			DiskHeadroom: d / r,
		}
	}
	return rows, nil
}

// FormatPageSize renders the page-granularity ablation.
func FormatPageSize(rows []PageSizeRow) string {
	s := fmt.Sprintf("%12s %12s %14s %12s\n", "page (KB)", "avg IB MB/s", "faults/s", "slowdown(%)")
	for _, r := range rows {
		s += fmt.Sprintf("%12d %12.1f %14.0f %12.2f\n", r.PageSizeKB, r.AvgIBMBs, r.FaultsPerSec, r.SlowdownPct)
	}
	return s
}

// FormatSinks renders the sink comparison.
func FormatSinks(rows []SinkRow) string {
	s := fmt.Sprintf("%-36s %10s %10s %10s %10s\n", "sink", "peak MB/s", "headroom", "worst", "commit s")
	for _, r := range rows {
		s += fmt.Sprintf("%-36s %10.0f %9.1fx %9.1fx %10.3f\n", r.Sink, r.PeakMBs, r.HeadroomAvg, r.HeadroomMax, r.CommitS)
	}
	return s
}

// FormatTrends renders the §6.6 projection.
func FormatTrends(rows []TrendRow) string {
	s := fmt.Sprintf("%6s %14s %14s %12s %10s %10s\n", "year", "required MB/s", "network MB/s", "disk MB/s", "net x", "disk x")
	for _, r := range rows {
		s += fmt.Sprintf("%6d %14.1f %14.0f %12.0f %10.1f %10.1f\n",
			r.Year, r.RequiredMBs, r.NetworkMBs, r.DiskMBs, r.NetHeadroom, r.DiskHeadroom)
	}
	return s
}
