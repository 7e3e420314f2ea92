"""End-to-end streaming benchmark of the dispatcher (see README.md)."""
