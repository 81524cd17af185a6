// Command use consumes the fixture's exported API, so the fixture is
// clean under unused-export and exercises only its own analyzer.
package main

import "efix/internal/consumer"

var _ = []any{
	consumer.Bad, consumer.BadNeq, consumer.BadSwitch, consumer.Waived,
	consumer.Good, consumer.GoodLocal, consumer.GoodNil,
}

func main() {}
