# Masks the wall-clock text of a pintereport run, so that two runs of the
# same report compare byte for byte (make determinism-check):
#   - the "[<id> completed in <duration>]" lines;
#   - Table I's five timing columns (Avg, StdDev, Max, Min, Total), in
#     its header, separator and rows, whose widths follow the values;
#   - Table I's avg-time-ratio and measurement-date notes.
# Everything else passes through unchanged.
#
#   awk -f cmd/pintereport/mask_timing.awk report.txt

/^\[.* completed in .*\]$/ { print $1 " completed]"; next }
/^== / { table1 = ($2 == "table1:") }
table1 && /^note: avg-time ratios vs isolation:/ { print "note: avg-time ratios (masked)"; next }
table1 && /^note: wall times measured/ { print "note: wall times (masked)"; next }
table1 && !/^note: / && NF == 7 { print $1, $2, "-", "-", "-", "-", "-"; next }
{ print }
