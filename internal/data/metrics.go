package data

import "repro/internal/obs"

// Per-op kernel counters (collab_data_op_*). The instruments are nil until
// RegisterMetrics wires them to a registry — obs instruments are nil-safe,
// so the kernels update them unconditionally and pay one predictable
// branch when uninstrumented. The calibration layer reads these from
// /metrics to attribute compute-cost drift to specific kernels: a drifting
// compute profile with a falling dict-hit ratio points at string-keyed
// joins, a rising partition count at bigger inputs, and so on.
var (
	// metJoinRows counts rows flowing through Join (left + right +
	// emitted output rows).
	metJoinRows *obs.Counter
	// metGroupByRows counts input rows aggregated by GroupBy.
	metGroupByRows *obs.Counter
	// metOneHotRows counts input rows expanded by OneHot.
	metOneHotRows *obs.Counter
	// metPartitionsUsed counts radix partitions processed by the
	// partition-parallel kernels.
	metPartitionsUsed *obs.Counter
	// metKeyRows counts key cells tokenized by the join/group-by kernels;
	// metDictKeyRows counts the subset served from dictionary codes
	// (never rendered or string-hashed).
	metKeyRows     *obs.Counter
	metDictKeyRows *obs.Counter
	// metQuantileBuilds counts quantile views built: one per numeric
	// column that was ever trained on. Growing with the number of fits, it
	// says that training inputs do not survive from one run to the next.
	metQuantileBuilds *obs.Counter
)

// RegisterMetrics wires the package's kernel counters into reg and
// registers the derived dict-hit-ratio gauge. Safe to call more than once
// against the same registry (instruments are shared by name).
func RegisterMetrics(reg *obs.Registry) {
	metJoinRows = reg.Counter("collab_data_op_join_rows_total",
		"Rows processed by the radix hash-join kernel (left + right + output).")
	metGroupByRows = reg.Counter("collab_data_op_groupby_rows_total",
		"Rows aggregated by the partitioned group-by kernel.")
	metOneHotRows = reg.Counter("collab_data_op_onehot_rows_total",
		"Rows expanded by the one-hot kernel.")
	metPartitionsUsed = reg.Counter("collab_data_op_partitions_total",
		"Radix partitions processed by the partition-parallel kernels.")
	metKeyRows = reg.Counter("collab_data_op_key_rows_total",
		"Key cells tokenized by the join/group-by kernels.")
	metDictKeyRows = reg.Counter("collab_data_op_dict_key_rows_total",
		"Key cells served from dictionary codes (no string render or hash).")
	metQuantileBuilds = reg.Counter("collab_data_op_quantile_builds_total",
		"Column quantile views built for tree training (memoised per column object).")
	reg.GaugeFunc("collab_data_op_dict_hit_ratio",
		"Fraction of kernel key cells served from dictionary codes.",
		func() float64 {
			total := metKeyRows.Value()
			if total == 0 {
				return 0
			}
			return float64(metDictKeyRows.Value()) / float64(total)
		})
}
