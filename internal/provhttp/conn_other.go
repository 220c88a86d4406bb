//go:build !unix

package provhttp

// alive cannot peek here: a closed idle connection fails its next round
// trip before the answer, which is retried.
func (*conn) alive() bool { return true }
