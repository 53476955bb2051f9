"""End-to-end host-time benchmark of the whole system (see README.md)."""
