package optimistic

import (
	"bytes"
	"testing"

	"rollrec/internal/storage"
)

// FuzzDecodeLog: decodeLog never panics on an arbitrary (data, pad) image,
// and whatever it accepts is exactly what encodeLog writes for the entries
// it returned.
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
	f.Fuzz(func(t *testing.T, data []byte, pad int) {
		got, err := decodeLog(storage.Image{Data: data, Pad: pad})
		if err != nil {
			return
		}
		if re := encodeLog(got, pad); re.Pad != pad || !bytes.Equal(re.Data, data) {
			t.Fatalf("accepted image does not re-encode to itself:\n in  %x + %d\n out %x + %d",
				data, pad, re.Data, re.Pad)
		}
	})
}
