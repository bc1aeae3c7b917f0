package resource

import "evolve/internal/ckpt"

// CkptSave writes the vector's components in kind order.
func (v Vector) CkptSave(w ckpt.Encoder) {
	for _, x := range v {
		w.F64(x)
	}
}

// LoadVector reads a vector written by CkptSave.
func LoadVector(r *ckpt.Reader) Vector {
	var v Vector
	for k := range v {
		v[k] = r.F64()
	}
	return v
}
