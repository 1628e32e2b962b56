package bench

// committedDigests are the check digests of DefaultSeed: the sha256 over
// the warm-up block's and the first checkBlocks timed blocks' fingerprints,
// one per line, as sweep.Report.Fingerprint, service.SweepResult.Fingerprint
// and the stream run's outputs give them. A changed digest means changed
// simulation outputs. To re-record one on purpose, run the workload with the
// default seed and copy the check digest the mismatch reports.
var committedDigests = map[string]string{
	"ensemble":       "c7d75dd3230f2ce0a450993d206c3ff0bca4464f91e10fcb12ed45ac702da47d",
	"ensemble-storm": "85b435656fb2f2af2dda4f2e9c148b065ad855ee9792ef313c96bc5b8b61c942",
	"service":        "089f3977ab12fcc22f1cd1a58366004ab3e6365a962a4a3c52ac508296c0c705",
	"stream-1m":      "d33efa9742a0bc987ec890e0058668293b3e47e370e0ef6feecae539d4c826ef",

	"tiny/ensemble":       "103ed109931f3d67fc1ca0102552b52bab8e290b8959a50bac16b9ae9241fd91",
	"tiny/ensemble-storm": "8ecb34f6af384b6f411bc5172a5342510baf71fbcdb08b7d059e778ab79104ed",
	"tiny/service":        "a3b285194213b44fb0c4f18b87d1eb6b3874dc118c06f86ccaf63a3c9bfb86f0",
	"tiny/stream-1m":      "5dd7886761c21028927c46c8c1559b5043baa869d473c55c8127269f7068f57e",
}

func digestKey(workload string, tiny bool) string {
	if tiny {
		return "tiny/" + workload
	}
	return workload
}
