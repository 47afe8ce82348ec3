package jobs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzDecodeSpec feeds arbitrary bytes through DecodeSpec, the one path
// a submission enters the server by. The contract under fuzzing:
// DecodeSpec never panics, and any spec it accepts survives a
// marshal -> DecodeSpec round trip unchanged, so what the server
// persists in job.json reloads as the spec it accepted. The seed corpus
// in testdata/fuzz/FuzzDecodeSpec holds valid specs of all four flows,
// a compact spec with the retired omit_shards value, and the rejected
// classes: the retired engine field, an oversized seq_len and trailing
// data.
func FuzzDecodeSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		sp, err := DecodeSpec(bytes.NewReader(body))
		if err != nil {
			return
		}
		data, err := json.Marshal(sp)
		if err != nil {
			t.Fatalf("accepted spec %+v does not marshal: %v", sp, err)
		}
		again, err := DecodeSpec(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("re-marshaled spec %s rejected: %v", data, err)
		}
		if !reflect.DeepEqual(sp, again) {
			t.Fatalf("round trip changed the spec:\n  accepted %+v\n  reloaded %+v", sp, again)
		}
	})
}
