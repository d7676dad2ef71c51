// Fixture consumer: canonical and drifted metric names and label keys.
package webui

import "example.com/internal/obs"

var reg obs.Registry

func wire() {
	obs.L("Bad-Name", "route", "home")      // want `metric name "Bad-Name" is not canonical lowercase_underscore; use "bad_name"`
	obs.L("good_name", "Route-Key", "home") // want `label key "Route-Key" is not canonical lowercase_underscore; use "route_key"`
	obs.L(obs.GoodSeconds, "op", "save")
	reg.Counter("nvbench_items")           // want `counter "nvbench_items" must end in _total`
	reg.Histogram("nvbench_latency_total") // want `histogram "nvbench_latency_total" must end in _seconds`
	reg.Gauge("nvbench_depth_total")       // want `gauge "nvbench_depth_total" must not use the _total/_seconds suffixes`
	reg.Counter("nvbench_done_total")
	reg.Gauge("nvbench_in_flight")
	reg.ObserveEx("nvbench_q_latency", 1, "op") // want `histogram "nvbench_q_latency" must end in _seconds`
}

var timing obs.Timing

func end() {
	timing.End("ok", "shards", "4")
	timing.End("error", "Failed-Shards", "1")           // want `event field key "Failed-Shards" is not canonical lowercase_underscore; use "failed_shards"`
	timing.End("ok", "cache_hit", "yes", "pairID", "7") // want `event field key "pairID" is not canonical lowercase_underscore; use "pairid"`
	timing.End("ok", "bytes", "10")
	timing.End("ok", "Byte-Count", "10") // want `event field key "Byte-Count" is not canonical lowercase_underscore; use "byte_count"`
	timing.End("ok", "cache.hit", "yes") // want `event field key "cache.hit" is not canonical lowercase_underscore; use "cache_hit"`
	kv := []string{"Spread-Keys", "are", "opaque"}
	timing.End("ok", kv...)
}
