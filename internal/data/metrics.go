package data

import (
	"sync/atomic"

	"repro/internal/obs"
)

// kernelCounters are the per-op kernel counters (collab_data_op_*). The
// calibration layer reads these from /metrics to attribute compute-cost
// drift to specific kernels: a drifting compute profile with a falling
// dict-hit ratio points at string-keyed joins, a rising partition count at
// bigger inputs, and so on.
type kernelCounters struct {
	// joinRows counts rows flowing through Join (left + right + emitted
	// output rows).
	joinRows *obs.Counter
	// groupByRows counts input rows aggregated by GroupBy.
	groupByRows *obs.Counter
	// oneHotRows counts input rows expanded by OneHot.
	oneHotRows *obs.Counter
	// partitionsUsed counts radix partitions processed by the
	// partition-parallel kernels.
	partitionsUsed *obs.Counter
	// keyRows counts key cells tokenized by the join/group-by kernels;
	// dictKeyRows counts the subset served from dictionary codes (never
	// rendered or string-hashed).
	keyRows     *obs.Counter
	dictKeyRows *obs.Counter
	// quantileBuilds counts quantile views built: one per numeric column
	// that was ever trained on. Growing with the number of fits, it says that
	// training inputs do not survive from one run to the next.
	quantileBuilds *obs.Counter
}

// installed is the set of counters the kernels update, published whole:
// RegisterMetrics may run (a server being built) while kernels run in other
// goroutines. Until the first RegisterMetrics it holds nil counters — obs
// instruments are nil-safe, so the kernels update them unconditionally and
// pay one atomic load and one predictable branch when uninstrumented.
var installed atomic.Pointer[kernelCounters]

func init() { installed.Store(&kernelCounters{}) }

// met returns the installed counters.
func met() *kernelCounters { return installed.Load() }

// RegisterMetrics wires the package's kernel counters into reg, registers
// the derived dict-hit-ratio gauge and installs the counters process-wide.
// The kernels are process-global, so when several servers share one process
// the most recently constructed registry receives the counts (as with
// parallel.RegisterMetrics). Safe to call more than once against the same
// registry (instruments are shared by name).
func RegisterMetrics(reg *obs.Registry) {
	m := &kernelCounters{
		joinRows: reg.Counter("collab_data_op_join_rows_total",
			"Rows processed by the radix hash-join kernel (left + right + output)."),
		groupByRows: reg.Counter("collab_data_op_groupby_rows_total",
			"Rows aggregated by the partitioned group-by kernel."),
		oneHotRows: reg.Counter("collab_data_op_onehot_rows_total",
			"Rows expanded by the one-hot kernel."),
		partitionsUsed: reg.Counter("collab_data_op_partitions_total",
			"Radix partitions processed by the partition-parallel kernels."),
		keyRows: reg.Counter("collab_data_op_key_rows_total",
			"Key cells tokenized by the join/group-by kernels."),
		dictKeyRows: reg.Counter("collab_data_op_dict_key_rows_total",
			"Key cells served from dictionary codes (no string render or hash)."),
		quantileBuilds: reg.Counter("collab_data_op_quantile_builds_total",
			"Column quantile views built for tree training (memoised per column object)."),
	}
	reg.GaugeFunc("collab_data_op_dict_hit_ratio",
		"Fraction of kernel key cells served from dictionary codes.",
		func() float64 {
			total := m.keyRows.Value()
			if total == 0 {
				return 0
			}
			return float64(m.dictKeyRows.Value()) / float64(total)
		})
	installed.Store(m)
}
