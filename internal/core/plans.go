package core

import (
	"fmt"
	"slices"
	"strings"
)

// Plan is one write→read interface pair of Figure 6.
type Plan struct {
	Family string // "ss" (Spark to Spark), "sh" (Spark to Hive), "hs" (Hive to Spark)
	Write  Iface
	Read   Iface
}

// planNames holds every plan label, indexed by ifaceSlot of the write
// then the read interface, so Name allocates nothing.
var planNames = [3][3]string{
	{"w_sql_r_sql", "w_sql_r_df", "w_sql_r_hive"},
	{"w_df_r_sql", "w_df_r_df", "w_df_r_hive"},
	{"w_hive_r_sql", "w_hive_r_df", "w_hive_r_hive"},
}

// ifaceSlot indexes planNames; any interface other than SparkSQL and
// DataFrame labels as "hive".
func ifaceSlot(i Iface) int {
	switch i {
	case SparkSQL:
		return 0
	case DataFrame:
		return 1
	default:
		return 2
	}
}

// Name is the artifact's plan label, e.g. "w_sql_r_df".
func (p Plan) Name() string {
	return planNames[ifaceSlot(p.Write)][ifaceSlot(p.Read)]
}

// Plans returns the eight write/read pairs of the Figure 6 setup:
// four Spark-to-Spark, two Spark-to-Hive, two Hive-to-Spark.
func Plans() []Plan {
	return []Plan{
		{Family: "ss", Write: SparkSQL, Read: SparkSQL},
		{Family: "ss", Write: SparkSQL, Read: DataFrame},
		{Family: "ss", Write: DataFrame, Read: SparkSQL},
		{Family: "ss", Write: DataFrame, Read: DataFrame},
		{Family: "sh", Write: SparkSQL, Read: HiveQL},
		{Family: "sh", Write: DataFrame, Read: HiveQL},
		{Family: "hs", Write: HiveQL, Read: SparkSQL},
		{Family: "hs", Write: HiveQL, Read: DataFrame},
	}
}

// Families returns the plan families, in Plans() order: Spark to
// Spark, Spark to Hive, Hive to Spark.
func Families() []string { return []string{"ss", "sh", "hs"} }

// PlansIn returns the plans of the given families in Plans() order,
// every plan for an empty list. An unknown family is an error, never a
// run that silently tests nothing.
func PlansIn(families []string) ([]Plan, error) {
	for _, f := range families {
		if !slices.Contains(Families(), f) {
			return nil, fmt.Errorf("core: unknown plan family %q (want %s)", f, strings.Join(Families(), ", "))
		}
	}
	plans := Plans()
	if len(families) == 0 {
		return plans, nil
	}
	return slices.DeleteFunc(plans, func(p Plan) bool { return !slices.Contains(families, p.Family) }), nil
}

// Formats returns the backend formats under test, in the paper's order.
func Formats() []string { return []string{"orc", "parquet", "avro"} }
