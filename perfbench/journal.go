package main

import (
	"bufio"
	"encoding/gob"
	"errors"
	"io"
	"os"
	"path/filepath"
)

// journal spools records to a file in the run's directory. The answers the
// oracle checks after the timed phase stay off the heap, so they neither
// count toward retained_mib nor make it depend on how many operations a
// run completed.
type journal[T any] struct {
	f   *os.File
	w   *bufio.Writer
	enc *gob.Encoder
	err error
}

func newJournal[T any](dir, name string) (*journal[T], error) {
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return nil, err
	}
	w := bufio.NewWriter(f)
	return &journal[T]{f: f, w: w, enc: gob.NewEncoder(w)}, nil
}

func (j *journal[T]) add(r T) {
	if j.err == nil {
		j.err = j.enc.Encode(r)
	}
}

// each calls fn on every record, in the order they were added.
func (j *journal[T]) each(fn func(T)) error {
	if j.err != nil {
		return j.err
	}
	if err := j.w.Flush(); err != nil {
		return err
	}
	if _, err := j.f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	dec := gob.NewDecoder(bufio.NewReader(j.f))
	for {
		var rec T
		if err := dec.Decode(&rec); err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			return err
		}
		fn(rec)
	}
	_, err := j.f.Seek(0, io.SeekEnd)
	return err
}

func (j *journal[T]) close() {
	if j != nil {
		j.f.Close()
	}
}
