package core

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

// Formats returns the backend formats under test, in the paper's order.
func Formats() []string { return []string{"orc", "parquet", "avro"} }
