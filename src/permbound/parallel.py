"""Empty: report rows are computed serially; perfbench's tracer still imports this module by name."""
