// Data-plane example: the SPARK-27239 file-size discrepancy of
// Figure 2, its Figure 4 fix, and a live demonstration of three §8.2
// data-plane discrepancies on the Spark-Hive boundary.
package main

import (
	"fmt"
	"log"

	"repro/internal/hdfssim"
	"repro/internal/hivesim"
	"repro/internal/replay"
	"repro/internal/sparksim"
	"repro/internal/sqlval"
)

func main() {
	fmt.Println("SPARK-27239 (Figure 2): HDFS reports length -1 for compressed data;")
	fmt.Println("Spark asserts lengths are nonnegative.")
	if _, err := replay.CompressedFileRead(true, false); err != nil {
		fmt.Printf("  buggy:  %v\n", err)
	}
	if data, err := replay.CompressedFileRead(true, true); err == nil {
		fmt.Printf("  fixed (Figure 4, length >= -1): read %d bytes\n\n", len(data))
	}

	fs := hdfssim.New(nil)
	ms := hivesim.NewMetastore()
	spark := sparksim.NewSession(fs, ms)
	hive := hivesim.New(fs, ms)

	fmt.Println("Discrepancy #6 (HIVE-26528 model): Parquet INT96 timestamps.")
	mustSQL(spark, `CREATE TABLE events (ts TIMESTAMP) STORED AS PARQUET`)
	mustSQL(spark, `INSERT INTO events VALUES (TIMESTAMP '2021-06-15 12:00:00')`)
	sres := mustSQL(spark, `SELECT * FROM events`)
	hres, err := hive.Execute(`SELECT * FROM events`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  Spark reads back: %s\n", sqlval.FormatTimestamp(sres.Rows[0][0].Int()))
	fmt.Printf("  Hive reads back:  %s  (writer zone ignored)\n\n", sqlval.FormatTimestamp(hres.Rows[0][0].Int()))

	fmt.Println("Discrepancy #8 (SPARK-40616 model): CHAR padding.")
	mustSQL(spark, `CREATE TABLE tags (c CHAR(4)) STORED AS ORC`)
	mustSQL(spark, `INSERT INTO tags VALUES ('ab')`)
	sres = mustSQL(spark, `SELECT * FROM tags`)
	hres, err = hive.Execute(`SELECT * FROM tags`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  Spark reads back: %q\n", sres.Rows[0][0].Str())
	fmt.Printf("  Hive reads back:  %q  (read-side padding)\n\n", hres.Rows[0][0].Str())

	fmt.Println("Discrepancy #5 (SPARK-40439): decimal with excess precision.")
	mustSQL(spark, `CREATE TABLE amounts (d DECIMAL(5,2)) STORED AS PARQUET`)
	if _, err := spark.SQL(`INSERT INTO amounts VALUES (1.23456)`); err != nil {
		fmt.Printf("  SparkSQL insert:  %v\n", err)
	}
	if _, err := hive.Execute(`INSERT INTO amounts VALUES (1.23456)`); err == nil {
		hres, _ = hive.Execute(`SELECT * FROM amounts`)
		fmt.Printf("  HiveQL insert:    accepted silently, stored %s\n", hres.Rows[0][0])
	}
	fmt.Println("\n  The same data, the same table - different outcomes per interface:")
	fmt.Println("  exactly the inconsistent error behavior of Finding 15.")
}

func mustSQL(s *sparksim.Session, q string) *sparksim.Result {
	res, err := s.SQL(q)
	if err != nil {
		log.Fatal(err)
	}
	return res
}
