/* Test program for the campaign workload.
 *
 * Exits with argc % 4, so the null invocation chosen for a binary fixes its
 * exit code.  When PERFBENCH_RUN_LOG names a file, each run appends the path
 * of the running executable to it; the benchmark counts original runs that way.
 */
#include <fcntl.h>
#include <stdio.h>
#include <stdlib.h>
#include <unistd.h>

int main(int argc, char **argv) {
    (void)argv;
    const char *log = getenv("PERFBENCH_RUN_LOG");
    if (log) {
        char exe[4096];
        ssize_t n = readlink("/proc/self/exe", exe, sizeof exe - 1);
        int fd = open(log, O_WRONLY | O_APPEND | O_CREAT, 0644);
        if (n > 0 && fd >= 0) {
            exe[n] = '\n';
            if (write(fd, exe, (size_t)n + 1) < 0) {
                perror("write");
            }
        }
        if (fd >= 0) {
            close(fd);
        }
    }
    printf("hello %d\n", argc);
    return argc % 4;
}
