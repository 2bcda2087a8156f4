package optimistic

import (
	"bytes"
	"testing"

	"rollrec/internal/storage"
)

// seedPads are the pads the decoder fuzzers seed a logged payload and the
// image's own padding with: none, a few, both sides of the length field's
// inline limit (1023), and past the 4 MiB maxListLen.
var seedPads = []int{0, 1, 3, 1022, 1023, 1024, 8 << 20}

// FuzzDecodeLog: decodeLog never panics on an arbitrary (data, pad) image,
// and whatever it accepts is exactly what encodeLog writes for the entries
// it returned: the image's pad is the entries' payload pads and the log's
// own, so the log's is what is left of it once the entries are encoded.
func FuzzDecodeLog(f *testing.F) {
	entries := []logEntry{
		{from: 1, ssn: 5, dseq: 2, payload: storage.Image{Data: []byte("abc")}, dv: []interval{{1, 1}, {1, 2}, {2, 3}}},
		{from: 2, ssn: 9, dseq: 1, dv: []interval{{1, 4}}},
		{from: 0, ssn: 2, dseq: 4, payload: storage.Image{Data: []byte("pad"), Pad: 5}, dv: []interval{{1, 5}}},
	}
	for n := range 4 {
		for _, pad := range []int{0, 128} {
			img := encodeLog(entries[:n], pad)
			f.Add(img.Data, img.Pad)
			f.Add(img.Data, img.Pad+1)
			f.Add(img.Data[:len(img.Data)/2], img.Pad)
		}
	}
	f.Add([]byte{}, -1)
	for _, pad := range seedPads {
		img := encodeLog([]logEntry{{from: 1, ssn: 2, dseq: 1, payload: storage.Image{Data: []byte("p"), Pad: pad}}}, pad)
		f.Add(img.Data, img.Pad)
		f.Add(img.Data, img.Pad-1)
	}
	f.Fuzz(func(t *testing.T, data []byte, pad int) {
		got, err := decodeLog(storage.Image{Data: data, Pad: pad})
		if err != nil {
			return
		}
		if re := encodeLog(got, pad-encodeLog(got, 0).Pad); re.Pad != pad || !bytes.Equal(re.Data, data) {
			t.Fatalf("accepted image does not re-encode to itself:\n in  %x + %d\n out %x + %d",
				data, pad, re.Data, re.Pad)
		}
	})
}
