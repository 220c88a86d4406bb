//go:build unix

package provhttp

import "syscall"

// alive tells whether an idle connection is still open at the daemon's end
// by one non-blocking peek: nothing to read means open; the end of the
// stream (an idle timeout or a restart closed it), an error or bytes nobody
// asked for mean it is not. The peek is bound on first use, so a check
// allocates nothing.
func (cn *conn) alive() bool {
	if cn.peek == nil {
		sc, ok := cn.Conn.(syscall.Conn)
		if !ok {
			return true
		}
		var err error
		if cn.raw, err = sc.SyscallConn(); err != nil {
			return false
		}
		cn.peek = func(fd uintptr) bool {
			_, _, err := syscall.Recvfrom(int(fd), cn.peeked[:], syscall.MSG_PEEK|syscall.MSG_DONTWAIT)
			cn.open = err == syscall.EAGAIN || err == syscall.EWOULDBLOCK
			return true // never wait for the descriptor
		}
	}
	cn.open = false
	return cn.raw.Read(cn.peek) == nil && cn.open
}
